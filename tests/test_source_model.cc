/**
 * @file
 * Regression tests for the shared lexer layer (srcmodel): raw string
 * literals including encoding-prefixed and custom-delimiter forms,
 * backslash line-continuations extending // comments, digit
 * separators, and the inline-suppression parser.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tools/fleetio_lint/source_model.h"

namespace fleetio::srcmodel {
namespace {

TEST(StripCode, PreservesLengthAndNewlines)
{
    const std::string in =
        "int a; // note\n\"str//ing\"\n/* b\nlock */ int c;\n";
    const std::string out = stripCode(in);
    ASSERT_EQ(out.size(), in.size());
    for (std::size_t i = 0; i < in.size(); ++i) {
        if (in[i] == '\n') {
            EXPECT_EQ(out[i], '\n') << "newline lost at " << i;
        }
    }
}

TEST(StripCode, BlanksCommentAndStringBodies)
{
    const std::string out =
        stripCode("int a; // rand()\nauto s = \"rand()\";\n");
    EXPECT_EQ(out.find("rand"), std::string::npos);
    // Code outside comments/strings survives verbatim.
    EXPECT_NE(out.find("int a;"), std::string::npos);
    EXPECT_NE(out.find("auto s ="), std::string::npos);
}

TEST(StripCode, PlainRawStringDoesNotDesync)
{
    // The // and unbalanced quote inside the raw body must not start
    // a comment or string state; the code after it must survive.
    const std::string out = stripCode(
        "auto s = R\"(no // comment \" here)\"; int live = 1;\n");
    EXPECT_EQ(out.find("comment"), std::string::npos);
    EXPECT_NE(out.find("int live = 1;"), std::string::npos);
}

TEST(StripCode, CustomDelimiterRawString)
{
    // The )" inside the body is NOT the terminator; only )xy" is.
    const std::string out = stripCode(
        "auto s = R\"xy(body )\" still body)xy\"; int live = 2;\n");
    EXPECT_EQ(out.find("body"), std::string::npos);
    EXPECT_NE(out.find("int live = 2;"), std::string::npos);
}

TEST(StripCode, EncodingPrefixedRawStrings)
{
    for (const char *prefix : {"u8R", "uR", "UR", "LR"}) {
        const std::string in = std::string("auto s = ") + prefix +
                               "\"(hidden // text)\"; int ok = 3;\n";
        const std::string out = stripCode(in);
        EXPECT_EQ(out.find("hidden"), std::string::npos) << prefix;
        EXPECT_NE(out.find("int ok = 3;"), std::string::npos)
            << prefix;
    }
}

TEST(StripCode, IdentifierEndingInRIsNotARawString)
{
    // `fooR"x"` would be a raw string only if R were not glued to a
    // preceding identifier character.
    const std::string out = stripCode("auto v = fooR + \"x\" + y;\n");
    EXPECT_NE(out.find("fooR"), std::string::npos);
    EXPECT_NE(out.find("+ y;"), std::string::npos);
}

TEST(StripCode, BackslashContinuationExtendsLineComment)
{
    // The preprocessor splices the \\ + newline, so `int b = rand();`
    // is still commented out; `int c` on the following line is code.
    const std::string in =
        "// comment continues \\\nint b = rand();\nint c = 1;\n";
    const std::string out = stripCode(in);
    EXPECT_EQ(out.find("rand"), std::string::npos);
    EXPECT_NE(out.find("int c = 1;"), std::string::npos);
    // Line structure survives the splice.
    EXPECT_EQ(splitLines(out).size(), splitLines(in).size());
}

TEST(StripCode, DigitSeparatorsAreNotCharLiterals)
{
    const std::string out =
        stripCode("const long n = 1'000'000; int after = 2;\n");
    EXPECT_NE(out.find("1'000'000"), std::string::npos);
    EXPECT_NE(out.find("int after = 2;"), std::string::npos);
}

TEST(StripCode, CharLiteralsAreBlanked)
{
    const std::string out = stripCode("char q = '\"'; int z = 4;\n");
    EXPECT_EQ(out.find('"'), std::string::npos);
    EXPECT_NE(out.find("int z = 4;"), std::string::npos);
}

TEST(Matchers, WordBoundariesAndCallLike)
{
    EXPECT_TRUE(containsWord("a rand b", "rand"));
    EXPECT_FALSE(containsWord("srand(7)", "rand"));
    EXPECT_TRUE(callLike("x = rand ();", "rand"));
    EXPECT_FALSE(callLike("x = strand();", "rand"));
}

TEST(ParseAllows, TrailingAndStandaloneComments)
{
    const std::vector<std::string> raw = {
        "int a = f();  // tool: allow(rule-a): reason here",
        "// tool: allow(rule-b): next code line",
        "",
        "int b = g();",
        "// tool: allow(rule-c)",
        "int c = h();",
    };
    std::vector<std::string> code;
    for (const std::string &l : raw)
        code.push_back(splitLines(stripCode(l + "\n"))[0]);
    const auto m = parseAllows(raw, code, "tool:");

    ASSERT_TRUE(m.count(1));  // trailing: suppresses its own line
    EXPECT_EQ(m.at(1)[0].rule, "rule-a");
    EXPECT_TRUE(m.at(1)[0].has_reason);

    ASSERT_TRUE(m.count(4));  // standalone: skips the blank line
    EXPECT_EQ(m.at(4)[0].rule, "rule-b");

    ASSERT_TRUE(m.count(6));  // reason-less allow still parses
    EXPECT_EQ(m.at(6)[0].rule, "rule-c");
    EXPECT_FALSE(m.at(6)[0].has_reason);
}

}  // namespace
}  // namespace fleetio::srcmodel
