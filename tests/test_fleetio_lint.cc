/**
 * @file
 * fleetio_lint against the seeded fixture tree under
 * tests/lint_fixtures/: every rule R1-R7 is proven live by a fixture
 * that trips it, a clean file stays clean, and the suppression
 * machinery both silences reasoned allows and flags reason-less ones.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "tools/fleetio_lint/lint.h"

namespace fleetio::lint {
namespace {

std::string
fixturesRoot()
{
    return FLEETIO_LINT_FIXTURES;
}

Result
runRule(const std::string &rule)
{
    Options opts;
    opts.rules = {rule};
    return runLint(fixturesRoot(), opts);
}

/** Violations of @p rule whose file contains @p file_part. */
std::vector<Violation>
inFile(const Result &r, const std::string &rule,
       const std::string &file_part)
{
    std::vector<Violation> out;
    for (const Violation &v : r.violations) {
        if (v.rule == rule &&
            v.file.find(file_part) != std::string::npos)
            out.push_back(v);
    }
    return out;
}

TEST(LintRegistry, ExposesAllRulesWithIssueTags)
{
    const auto &rs = rules();
    ASSERT_GE(rs.size(), 8u);
    std::vector<std::string> ids;
    for (const RuleInfo &r : rs)
        ids.push_back(r.id);
    for (const char *want :
         {"nondeterminism", "hotpath", "probe-macro", "layering",
          "header-hygiene", "build-registration", "journal-api"}) {
        EXPECT_NE(std::find(ids.begin(), ids.end(), want), ids.end())
            << "missing rule " << want;
    }
}

TEST(LintFixtures, FullRunFlagsEveryRule)
{
    const Result r = runLint(fixturesRoot());
    EXPECT_FALSE(r.clean());
    EXPECT_EQ(r.files_scanned, 13u);
    EXPECT_EQ(r.suppressions_used, 2u);
    for (const char *rule :
         {"nondeterminism", "hotpath", "probe-macro", "layering",
          "header-hygiene", "build-registration", "journal-api",
          "suppression"}) {
        const bool found = std::any_of(
            r.violations.begin(), r.violations.end(),
            [&](const Violation &v) { return v.rule == rule; });
        EXPECT_TRUE(found) << "no fixture tripped rule " << rule;
    }
}

TEST(LintFixtures, R1NondeterminismFlagsClockAndRand)
{
    const Result r = runRule("nondeterminism");
    const auto hits = inFile(r, "nondeterminism", "nondet_bad.cc");
    ASSERT_EQ(hits.size(), 2u);
    EXPECT_EQ(hits[0].line, 10);  // system_clock
    EXPECT_EQ(hits[1].line, 16);  // rand()
}

TEST(LintFixtures, R2HotpathFlagsFunctionIostreamStoi)
{
    const Result r = runRule("hotpath");
    const auto hits = inFile(r, "hotpath", "hotpath_bad.cc");
    EXPECT_EQ(hits.size(), 4u);
    // Everything hotpath flags lives in that one fixture.
    EXPECT_EQ(inFile(r, "hotpath", "").size(), hits.size());
}

// The trace-event and attribution-hub emit rules are one rule now,
// probe-macro, over all of src/ outside src/obs; each half keeps its
// test and fixture.
TEST(LintFixtures, R3TraceMacroFlagsRawEmit)
{
    const Result r = runRule("probe-macro");
    // A raw probe emit in src/core fires; the FLEETIO_PROBE line after
    // it does not.
    const auto hits = inFile(r, "probe-macro", "core/trace_bad.cc");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].line, 16);
    EXPECT_NE(hits[0].message.find("ioSubmit"), std::string::npos);
    EXPECT_NE(hits[0].message.find("FLEETIO_PROBE"), std::string::npos);
    // One hit per probe-macro fixture and nothing else.
    EXPECT_EQ(inFile(r, "probe-macro", "").size(), 2u);
}

TEST(LintFixtures, R4LayeringFlagsSimIncludingRl)
{
    const Result r = runRule("layering");
    const auto hits = inFile(r, "layering", "layering_bad.h");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_NE(hits[0].message.find("src/rl/agent_stub.h"),
              std::string::npos);
}

TEST(LintFixtures, R4LayeringFlagsVirtIncludingControlPlane)
{
    const Result r = runRule("layering");
    const auto hits = inFile(r, "layering", "controlplane_bad.h");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_NE(hits[0].message.find("src/core/tenant_admission.h"),
              std::string::npos);
    EXPECT_NE(hits[0].message.find("control plane"),
              std::string::npos);
}

TEST(LintFixtures, R5HeaderHygieneFlagsGuardAndUsingNamespace)
{
    const Result r = runRule("header-hygiene");
    const auto hits = inFile(r, "header-hygiene", "header_bad.h");
    ASSERT_EQ(hits.size(), 2u);
    EXPECT_NE(hits[0].message.find("#pragma once"), std::string::npos);
    EXPECT_NE(hits[1].message.find("using namespace"),
              std::string::npos);
}

TEST(LintFixtures, R6BuildRegistrationFlagsOrphanOnly)
{
    const Result r = runRule("build-registration");
    EXPECT_EQ(inFile(r, "build-registration", "unregistered.cc").size(),
              1u);
    EXPECT_TRUE(inFile(r, "build-registration", "/registered.cc")
                    .empty());
    EXPECT_TRUE(
        inFile(r, "build-registration", "nondet_bad.cc").empty());
}

TEST(LintFixtures, R7JournalApiFlagsDirectMutationAndHonorsAllow)
{
    const Result r = runRule("journal-api");
    // The direct eraseBlock fires; the reasoned allow silences the
    // retireBlock two lines below it.
    const auto hits = inFile(r, "journal-api", "journal_bad.cc");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].line, 9);
    EXPECT_NE(hits[0].message.find("durable"), std::string::npos);
    EXPECT_GE(r.suppressions_used, 1u);
}

TEST(LintFixtures, R8AttrMacroFlagsRawEmit)
{
    const Result r = runRule("probe-macro");
    const auto hits = inFile(r, "probe-macro", "virt/probe_bad.cc");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].line, 13);
    EXPECT_NE(hits[0].message.find("noteRead"), std::string::npos);
    EXPECT_NE(hits[0].message.find("FLEETIO_PROBE"), std::string::npos);
}

TEST(LintFixtures, ReasonedSuppressionSilencesButReasonlessFires)
{
    const Result r = runRule("nondeterminism");
    // suppressed_ok.cc: rand() behind a reasoned multi-line allow.
    EXPECT_TRUE(inFile(r, "nondeterminism", "suppressed_ok.cc").empty());
    EXPECT_GE(r.suppressions_used, 1u);
    // suppressed_bad.cc: allow without a reason does not silence...
    EXPECT_EQ(inFile(r, "nondeterminism", "suppressed_bad.cc").size(),
              1u);
    // ...and is itself reported (suppression hygiene always runs).
    EXPECT_EQ(inFile(r, "suppression", "suppressed_bad.cc").size(), 1u);
}

TEST(LintFixtures, CleanFileStaysClean)
{
    const Result r = runLint(fixturesRoot());
    for (const Violation &v : r.violations)
        EXPECT_EQ(v.file.find("/registered.cc"), std::string::npos)
            << v.file << " flagged by " << v.rule;
}

TEST(FixHeaderGuard, ConvertsClassicGuard)
{
    std::string text =
        "// comment\n"
        "#ifndef FOO_BAR_H\n"
        "#define FOO_BAR_H\n"
        "\n"
        "int x;\n"
        "\n"
        "#endif  // FOO_BAR_H\n";
    ASSERT_TRUE(fixHeaderGuard(text));
    EXPECT_NE(text.find("#pragma once"), std::string::npos);
    EXPECT_EQ(text.find("#ifndef"), std::string::npos);
    EXPECT_EQ(text.find("#endif"), std::string::npos);
    EXPECT_NE(text.find("int x;"), std::string::npos);
}

TEST(FixHeaderGuard, LeavesPragmaOnceAndGuardlessFilesAlone)
{
    std::string pragma_text = "#pragma once\nint x;\n";
    EXPECT_FALSE(fixHeaderGuard(pragma_text));
    std::string no_guard = "int x;\n";
    EXPECT_FALSE(fixHeaderGuard(no_guard));
    // Conditional compilation is not an include guard.
    std::string cond =
        "#ifndef NDEBUG\n#define CHECKS 1\n#endif\nint x;\n";
    EXPECT_FALSE(fixHeaderGuard(cond));
}

TEST(FixHeaderGuard, KeepsNestedConditionalsInsideGuard)
{
    std::string text =
        "#ifndef G_H\n"
        "#define G_H\n"
        "#ifdef FAST\n"
        "int y;\n"
        "#endif\n"
        "#endif\n";
    ASSERT_TRUE(fixHeaderGuard(text));
    EXPECT_NE(text.find("#ifdef FAST"), std::string::npos);
    EXPECT_NE(text.find("#endif"), std::string::npos);
    EXPECT_EQ(text.find("G_H"), std::string::npos);
}

}  // namespace
}  // namespace fleetio::lint
