/**
 * @file
 * fleetio-analyze implementation. Pipeline: stripCode (shared lexer,
 * source_model.h) -> tokenize -> per-file scope parse into an IR of
 * classes/fields/functions/call-sites -> tree-wide merge + name
 * resolution into a call graph -> the three interprocedural rule
 * families (R9 lock-discipline, R10 hot-alloc, R11 determinism-taint).
 *
 * The parser is a deliberately lightweight recursive-descent pass over
 * the token stream — no preprocessor expansion, no templates, no type
 * checking. Where it cannot resolve a call it either *widens* (edges
 * to every same-named candidate, marked CallEdge::widened) or *skips*
 * (known std:: container/utility method names on unresolved
 * receivers, which would otherwise wire every `v.size()` to every
 * class with a size() method). Widened edges count for R10
 * reachability (allocation on ANY possible callee is a finding) but
 * not for R9 REQUIRES / R11 taint propagation (those must not jump
 * between unrelated classes that merely share a method name).
 */
#include "tools/fleetio_lint/analyze.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <ostream>
#include <sstream>
#include <tuple>

#include "tools/fleetio_lint/source_model.h"

namespace fs = std::filesystem;
namespace sm = fleetio::srcmodel;

namespace fleetio::analyze {
namespace {

// ------------------------------------------------------------ tokens

struct Token
{
    std::string text;
    int line = 0;  ///< 1-based
};

bool
isIdentStart(char c)
{
    return std::isalpha((unsigned char)c) || c == '_';
}

/**
 * Tokenize stripped source text. Preprocessor lines (including
 * backslash continuations) are dropped wholesale; string/char literal
 * *contents* are already blanked by stripCode, so we only need to hop
 * from the opening quote to the closing one. `::` and `->` are fused
 * into single tokens; everything else is an identifier, a number, or
 * one punctuation character.
 */
std::vector<Token>
tokenize(const std::string &text)
{
    std::vector<Token> toks;
    int line = 1;
    bool at_line_start = true;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (c == '\n') {
            ++line;
            at_line_start = true;
            continue;
        }
        if (std::isspace((unsigned char)c))
            continue;
        if (c == '#' && at_line_start) {
            // Directive: swallow to end of logical line.
            while (i < text.size()) {
                if (text[i] == '\n') {
                    std::size_t nl = i;
                    bool spliced =
                        (nl >= 1 && text[nl - 1] == '\\') ||
                        (nl >= 2 && text[nl - 1] == '\r' &&
                         text[nl - 2] == '\\');
                    ++line;
                    if (!spliced)
                        break;
                }
                ++i;
            }
            at_line_start = true;
            continue;
        }
        at_line_start = false;
        if (c == '"') {
            // Contents are blanks; find the closing quote (raw-string
            // delimiters were left visible but contain no quotes).
            ++i;
            while (i < text.size() && text[i] != '"') {
                if (text[i] == '\n')
                    ++line;
                ++i;
            }
            toks.push_back({"\"\"", line});
            continue;
        }
        if (c == '\'' &&
            (i == 0 || !sm::isWordChar(text[i - 1]))) {
            ++i;
            while (i < text.size() && text[i] != '\'') {
                if (text[i] == '\n')
                    ++line;
                ++i;
            }
            toks.push_back({"''", line});
            continue;
        }
        if (isIdentStart(c)) {
            std::size_t j = i;
            while (j < text.size() && sm::isWordChar(text[j]))
                ++j;
            toks.push_back({text.substr(i, j - i), line});
            i = j - 1;
            continue;
        }
        if (std::isdigit((unsigned char)c)) {
            std::size_t j = i;
            while (j < text.size() &&
                   (sm::isWordChar(text[j]) || text[j] == '.' ||
                    text[j] == '\''))
                ++j;
            toks.push_back({text.substr(i, j - i), line});
            i = j - 1;
            continue;
        }
        if (c == ':' && i + 1 < text.size() && text[i + 1] == ':') {
            toks.push_back({"::", line});
            ++i;
            continue;
        }
        if (c == '-' && i + 1 < text.size() && text[i + 1] == '>') {
            toks.push_back({"->", line});
            ++i;
            continue;
        }
        toks.push_back({std::string(1, c), line});
    }
    return toks;
}

// ---------------------------------------------------------------- IR

struct Param
{
    std::string type;  ///< tokens joined with ' '
    std::string name;
    bool has_default = false;
};

struct Site
{
    std::string kind;
    std::string detail;
    int line = 0;
};

/// CallRec::recv of a call made on a call's result (`a().b()`): there is
/// no variable to type, so resolveCall widens it by name.
const char *const kCallResult = "()";

struct CallRec
{
    std::string recv;  ///< `recv.name(` / `recv->name(`, "" if none
    std::string qual;  ///< `qual::name(`, "" if none
    std::string name;
    int argc = 0;
    int line = 0;
};

/** Lambda escape universes (which indirect call sites can reach it). */
enum Universe
{
    kNotEscaped = 0,
    kInline = 1,  ///< bound to an InlineFunction/Callback parameter
    kStdFn = 2,   ///< bound to a std::function parameter
    kBoth = 3,    ///< binding target unresolved — assume either
};

struct FnInfo
{
    FunctionNode node;
    std::vector<Param> params;
    std::map<std::string, int> idents;  ///< body ident -> first line
    std::map<std::string, int> lock_lines;  ///< held mutex -> first lock
    std::vector<CallRec> calls;
    std::vector<Site> allocs;  ///< R10 sites
    std::vector<Site> taints;  ///< R11 sources
    std::map<std::string, std::string> local_types;
    std::set<std::string> reserved;  ///< receivers reserve()/resize()d
    std::set<std::string> growth_recvs;
    bool is_ctor = false;
    bool is_dtor = false;
    int encloser = -1;  ///< enclosing FnInfo index (lambdas only)
    int universe = kNotEscaped;
    // Unresolved lambda binding: the call it was an argument of.
    std::string bind_call_name, bind_call_qual, bind_call_recv;
    int bind_arg = -1;
    std::string bind_var_type;  ///< or: type of the assigned variable
    std::string bind_var;       ///< assigned variable (type unknown)
    std::vector<std::string> out_quals;  ///< out-of-line A::B:: path
};

struct FieldInfo
{
    std::string type;        ///< tokens joined with ' '
    std::string guarded_by;  ///< FLEETIO_GUARDED_BY arg, "" if none
    int line = 0;
};

struct ClassInfo
{
    std::string name;  ///< qualified by class nesting, e.g. "A::B"
    std::string file;
    int line = 0;
    bool confined = false;  ///< FLEETIO_THREAD_CONFINED
    std::map<std::string, FieldInfo> fields;
};

struct FileIR
{
    std::string rel;
    std::map<int, std::vector<sm::Suppress>> allows;
};

/** `using X = ...;` */
struct Alias
{
    std::string def;    ///< tokens joined with ' '
    std::string scope;  ///< enclosing class, "" at namespace scope
};

struct Model
{
    std::vector<FnInfo> fns;
    std::map<std::string, ClassInfo> classes;
    /// Keyed by class-qualified name ("A::B::X"; "X" at namespace
    /// scope), so same-named aliases of different classes coexist.
    std::map<std::string, Alias> aliases;
    std::set<std::string> amp_names;  ///< `&ident` seen (addr-taken)
    std::vector<FileIR> files;
};

const std::set<std::string> &
keywordSet()
{
    static const std::set<std::string> k = {
        "if",       "for",      "while",     "switch",   "return",
        "sizeof",   "alignof",  "alignas",   "catch",    "throw",
        "new",      "delete",   "decltype",  "typeid",   "noexcept",
        "static_assert", "assert", "case",   "default",  "do",
        "else",     "goto",     "co_await",  "co_return"};
    return k;
}

/**
 * std:: container/utility method names skipped when the receiver type
 * is unknown — resolving these by bare name would wire every
 * `vec.size()` call to every class that happens to define size().
 */
const std::set<std::string> &
stdSkipSet()
{
    static const std::set<std::string> k = {
        "size",      "empty",     "begin",      "end",
        "cbegin",    "cend",      "rbegin",     "rend",
        "clear",     "push",      "pop",        "push_back",
        "pop_back",  "push_front", "pop_front", "emplace",
        "emplace_back", "emplace_front", "emplace_hint",
        "front",     "back",      "top",        "find",
        "count",     "contains",  "erase",      "insert",
        "at",        "reset",     "get",        "release",
        "data",      "c_str",     "str",        "first",
        "second",    "lock",      "unlock",     "try_lock",
        "wait",      "wait_for",  "notify_one", "notify_all",
        "load",      "store",     "exchange",   "fetch_add",
        "swap",      "resize",    "reserve",    "substr",
        "length",    "min",       "max",        "abs",
        "move",      "forward",   "make_pair",  "make_tuple",
        "to_string", "tie",       "assign",     "value",
        "has_value", "value_or",  "lower_bound", "upper_bound",
        "capacity",  "shrink_to_fit", "fill",   "join",
        "joinable",  "detach",    "good",       "fail",
        "is_open",   "open",      "close",      "flush",
        "write",     "read",      "rdbuf",      "setf",
        "precision", "getline",   "put",        "seekg",
        "tellg"};
    return k;
}

std::string
joinTokens(const std::vector<Token> &toks, std::size_t b,
           std::size_t e)
{
    std::string out;
    for (std::size_t i = b; i < e && i < toks.size(); ++i) {
        if (!out.empty())
            out += ' ';
        out += toks[i].text;
    }
    return out;
}

// ------------------------------------------------------------ parser

class Parser
{
public:
    Parser(Model &m, std::string rel, std::vector<Token> toks)
        : m_(m), rel_(std::move(rel)), t_(std::move(toks))
    {
    }

    void run() { parseScope(0, t_.size(), ""); }

private:
    Model &m_;
    std::string rel_;
    std::vector<Token> t_;

    const std::string &tx(std::size_t i) const
    {
        static const std::string empty;
        return i < t_.size() ? t_[i].text : empty;
    }
    int ln(std::size_t i) const
    {
        return i < t_.size() ? t_[i].line
                             : (t_.empty() ? 0 : t_.back().line);
    }

    /** i at an opening bracket; return index just past its match. */
    std::size_t skipBalanced(std::size_t i, std::size_t end)
    {
        const std::string open = tx(i);
        std::string close = open == "(" ? ")"
                          : open == "{" ? "}"
                          : open == "[" ? "]" : "";
        if (close.empty())
            return i + 1;
        int depth = 0;
        for (; i < end; ++i) {
            if (tx(i) == open)
                ++depth;
            else if (tx(i) == close && --depth == 0)
                return i + 1;
        }
        return end;
    }

    /** i just past a '<'; skip a balanced template argument list.
     *  Returns index past the closing '>', or @p i when it does not
     *  look like one (bails at ';', '{', '}'). */
    std::size_t skipAngles(std::size_t i, std::size_t end)
    {
        int depth = 1;
        std::size_t j = i;
        while (j < end && depth > 0) {
            const std::string &s = tx(j);
            if (s == "<")
                ++depth;
            else if (s == ">")
                --depth;
            else if (s == ";" || s == "{" || s == "}")
                return i;
            else if (s == "(" || s == "[")
                j = skipBalanced(j, end) - 1;
            ++j;
        }
        return depth == 0 ? j : i;
    }

    void parseScope(std::size_t i, std::size_t end,
                    const std::string &cls);
    std::size_t parseClassHead(std::size_t i, std::size_t end,
                               const std::string &outer);
    std::size_t parseDeclaration(std::size_t i, std::size_t end,
                                 const std::string &cls);
    std::size_t parseBody(std::size_t i, std::size_t end, int fn);
    int newLambda(int encloser, int line);
    void recordLocalDecl(FnInfo &f, std::size_t name_idx);
    std::string typeEndingAt(std::size_t name_idx);
};

void
Parser::parseScope(std::size_t i, std::size_t end,
                   const std::string &cls)
{
    while (i < end) {
        const std::string &s = tx(i);
        if (s == "}") {
            ++i;
            continue;  // scope close handled by caller's extent
        }
        if (s == ";" || s == "public" || s == "private" ||
            s == "protected" || s == ":") {
            ++i;
            continue;
        }
        if (s == "namespace") {
            ++i;
            while (i < end && tx(i) != "{" && tx(i) != ";")
                ++i;
            if (i < end && tx(i) == "{") {
                std::size_t close = skipBalanced(i, end);
                parseScope(i + 1, close - 1, cls);
                i = close;
            } else {
                ++i;
            }
            continue;
        }
        if (s == "template") {
            ++i;
            if (i < end && tx(i) == "<")
                i = skipAngles(i + 1, end);
            continue;
        }
        if (s == "using" || s == "typedef") {
            // `using X = ...;` -> alias keyed by its class-qualified
            // name; anything else just skipped.
            std::size_t semi = i;
            while (semi < end && tx(semi) != ";")
                ++semi;
            if (s == "using" && i + 2 < semi && tx(i + 2) == "=") {
                const std::string key =
                    cls.empty() ? tx(i + 1) : cls + "::" + tx(i + 1);
                m_.aliases[key] = {joinTokens(t_, i + 3, semi), cls};
            }
            i = semi + 1;
            continue;
        }
        if (s == "enum") {
            std::size_t j = i + 1;
            while (j < end && tx(j) != "{" && tx(j) != ";")
                ++j;
            if (j < end && tx(j) == "{")
                j = skipBalanced(j, end);
            while (j < end && tx(j) != ";")
                ++j;
            i = j + 1;
            continue;
        }
        if ((s == "class" || s == "struct" || s == "union")) {
            // Definition (has '{' before ';'/'(') or elaborated use?
            std::size_t j = i + 1;
            while (j < end && tx(j) != "{" && tx(j) != ";" &&
                   tx(j) != "(" && tx(j) != "=")
                ++j;
            if (j < end && tx(j) == "{") {
                i = parseClassHead(i, end, cls);
                continue;
            }
            // Forward decl or elaborated type in a declaration —
            // fall through to the declaration collector.
        }
        i = parseDeclaration(i, end, cls);
    }
}

std::size_t
Parser::parseClassHead(std::size_t i, std::size_t end,
                       const std::string &outer)
{
    const int line = ln(i);
    std::size_t brace = i + 1;
    while (brace < end && tx(brace) != "{")
        ++brace;
    // Name: last plain identifier before '{' or the base-clause ':',
    // ignoring `final` and the confinement marker.
    bool confined = false;
    std::string name;
    for (std::size_t j = i + 1; j < brace; ++j) {
        const std::string &s = tx(j);
        if (s == "FLEETIO_THREAD_CONFINED") {
            confined = true;
            continue;
        }
        if (s == ":")
            break;
        if (s == "final" || !isIdentStart(s.empty() ? ' ' : s[0]))
            continue;
        name = s;
    }
    std::size_t close = skipBalanced(brace, end);
    if (name.empty()) {  // anonymous — parse body in outer context
        parseScope(brace + 1, close - 1, outer);
    } else {
        const std::string q =
            outer.empty() ? name : outer + "::" + name;
        ClassInfo &ci = m_.classes[q];
        ci.name = q;
        if (ci.file.empty()) {
            ci.file = rel_;
            ci.line = line;
        }
        ci.confined = ci.confined || confined;
        parseScope(brace + 1, close - 1, q);
    }
    // Consume any declarator + ';' after the class body.
    std::size_t j = close;
    while (j < end && tx(j) != ";" && tx(j) != "}")
        ++j;
    return j < end && tx(j) == ";" ? j + 1 : j;
}

std::size_t
Parser::parseDeclaration(std::size_t i, std::size_t end,
                         const std::string &cls)
{
    // Collect one declaration: everything up to a top-level ';' or a
    // '{' that reads as a function body.
    const std::size_t start = i;
    std::size_t sig_open = 0, sig_close = 0;  // signature parens
    std::string name;
    std::vector<std::string> quals;  // out-of-line A::B:: path
    bool is_dtor = false, in_init_list = false, saw_arrow = false;
    bool body = false;
    std::size_t j = i;
    for (; j < end; ++j) {
        const std::string &s = tx(j);
        if (s == ";")
            break;
        if (s == "}")
            break;  // scope ended mid-decl (tolerate)
        if (s == "[") {
            j = skipBalanced(j, end) - 1;
            continue;
        }
        if (s == "<" && j > start &&
            isIdentStart(tx(j - 1)[0])) {
            std::size_t a = skipAngles(j + 1, end);
            if (a != j + 1) {
                j = a - 1;
                continue;
            }
        }
        if (s == "(") {
            if (sig_open == 0) {
                // Candidate signature: ident right before the paren.
                std::string cand;
                std::vector<std::string> qpath;
                bool dtor = false;
                std::size_t k = j;
                if (k > start &&
                    isIdentStart(tx(k - 1).empty() ? ' '
                                                   : tx(k - 1)[0])) {
                    cand = tx(k - 1);
                    std::size_t q = k - 1;
                    if (q > start && tx(q - 1) == "~") {
                        dtor = true;
                        --q;
                    }
                    while (q >= start + 2 && tx(q - 1) == "::" &&
                           isIdentStart(tx(q - 2)[0])) {
                        qpath.insert(qpath.begin(), tx(q - 2));
                        q -= 2;
                    }
                } else if (k >= start + 3 && tx(k - 3) == "operator" &&
                           tx(k - 2) == "(" && tx(k - 1) == ")") {
                    cand = "operator()";
                }
                // `operator<`, `operator==`, ... : name from the
                // `operator` keyword plus following puncts.
                if (cand.empty())
                    for (std::size_t q = j; q-- > start;) {
                        if (isIdentStart(tx(q)[0])) {
                            if (tx(q) == "operator")
                                cand = "operator" +
                                       joinTokens(t_, q + 1, j);
                            break;
                        }
                    }
                if (!cand.empty() && !keywordSet().count(cand) &&
                    cand.rfind("FLEETIO_", 0) != 0) {
                    name = cand;
                    quals = qpath;
                    is_dtor = dtor;
                    sig_open = j;
                    sig_close = skipBalanced(j, end) - 1;
                    j = sig_close;
                    continue;
                }
            }
            j = skipBalanced(j, end) - 1;
            continue;
        }
        if (s == ":" && sig_open && !in_init_list &&
            tx(j - 1) != ":") {
            in_init_list = true;
            continue;
        }
        if (s == "->" && sig_open)
            saw_arrow = true;
        if (s == "{") {
            const std::string &p = j > start ? tx(j - 1) : tx(start);
            const bool after_qual =
                p == ")" || p == "const" || p == "noexcept" ||
                p == "override" || p == "final" || p == "mutable";
            if (sig_open &&
                (after_qual || saw_arrow ||
                 (in_init_list && (p == "}" || p == ")")))) {
                if (in_init_list && !(p == "}" || p == ")") &&
                    !after_qual) {
                    j = skipBalanced(j, end) - 1;  // init `x_{...}`
                    continue;
                }
                body = true;
                break;
            }
            if (in_init_list || !sig_open) {
                j = skipBalanced(j, end) - 1;  // brace initializer
                continue;
            }
            j = skipBalanced(j, end) - 1;
            continue;
        }
    }
    const std::size_t decl_end = j;

    // Annotation macros anywhere in the declaration.
    auto macroArgs = [&](const char *macro) {
        std::vector<std::string> args;
        for (std::size_t k = start; k < decl_end; ++k) {
            if (tx(k) != macro || tx(k + 1) != "(")
                continue;
            std::size_t close = skipBalanced(k + 1, decl_end + 1);
            std::string last;
            for (std::size_t a = k + 2; a + 1 < close; ++a) {
                if (isIdentStart(tx(a)[0]))
                    last = tx(a);
                if (tx(a) == "," && !last.empty()) {
                    args.push_back(last);
                    last.clear();
                }
            }
            if (!last.empty())
                args.push_back(last);
        }
        return args;
    };

    if (!sig_open || name.empty()) {
        // Field / variable declaration (class scope only).
        if (!cls.empty() && decl_end > start && tx(decl_end) == ";") {
            auto guarded = macroArgs("FLEETIO_GUARDED_BY");
            std::size_t name_at = 0;
            for (std::size_t k = start; k < decl_end; ++k) {
                if (tx(k) == "FLEETIO_GUARDED_BY")
                    break;
                if (tx(k) == "=")
                    break;
                if (tx(k) == "{")
                    break;
                if (isIdentStart(tx(k)[0]) &&
                    !keywordSet().count(tx(k)))
                    name_at = k;
            }
            if (name_at > start) {
                FieldInfo fi;
                fi.type = joinTokens(t_, start, name_at);
                fi.guarded_by = guarded.empty() ? "" : guarded[0];
                fi.line = ln(name_at);
                m_.classes[cls].fields[tx(name_at)] = fi;
                if (m_.classes[cls].name.empty())
                    m_.classes[cls].name = cls;
            }
        }
        return decl_end < end ? decl_end + 1 : end;
    }

    // Function declaration or definition.
    FnInfo f;
    f.node.name = is_dtor ? "~" + name : name;
    f.node.file = rel_;
    f.node.line = ln(sig_open);
    f.out_quals = quals;
    f.node.cls = cls;
    if (!quals.empty()) {
        // Out-of-line definition; the class path is resolved against
        // the registry after all files parse (namespaces stripped).
        std::string qj;
        for (const std::string &q : quals)
            qj += (qj.empty() ? "" : "::") + q;
        f.node.cls = qj;
    }
    for (std::size_t k = start; k < sig_open; ++k)
        if (tx(k) == "virtual")
            f.node.is_virtual = true;
    for (std::size_t k = sig_close; k < decl_end; ++k)
        if (tx(k) == "override" || tx(k) == "final")
            f.node.is_virtual = true;
    f.node.requires_locks = macroArgs("FLEETIO_REQUIRES");
    f.node.excludes_locks = macroArgs("FLEETIO_EXCLUDES");
    f.is_dtor = is_dtor;
    {
        const std::string own =
            f.node.cls.substr(f.node.cls.rfind(':') == std::string::npos
                                  ? 0
                                  : f.node.cls.rfind(':') + 1);
        f.is_ctor = !is_dtor && !f.node.cls.empty() && name == own;
    }

    // Parameters: split the signature parens on top-level commas.
    {
        std::size_t a = sig_open + 1;
        int depth = 0;
        std::size_t item = a;
        auto flush = [&](std::size_t e) {
            if (e <= item)
                return;
            Param p;
            std::size_t name_at = 0;
            for (std::size_t k = item; k < e; ++k) {
                if (tx(k) == "=") {
                    p.has_default = true;
                    e = k;
                    break;
                }
            }
            for (std::size_t k = item; k < e; ++k)
                if (isIdentStart(tx(k)[0]) &&
                    !keywordSet().count(tx(k)))
                    name_at = k;
            if (name_at) {
                p.name = tx(name_at);
                p.type = joinTokens(t_, item, name_at);
            }
            if (p.type.empty()) {  // unnamed param: all tokens = type
                p.type = joinTokens(t_, item, e);
                p.name.clear();
            }
            if (p.type == "void" && p.name.empty())
                return;
            // Param-type words count as mentions (a fn taking an
            // ExperimentResult& is a result sink, R11).
            for (std::size_t k = item; k < e; ++k)
                if (isIdentStart(tx(k)[0]) &&
                    !keywordSet().count(tx(k)))
                    f.idents.emplace(tx(k), ln(k));
            f.params.push_back(p);
        };
        for (std::size_t k = a; k <= sig_close; ++k) {
            const std::string &s = tx(k);
            if (s == "(" || s == "[" || s == "{")
                ++depth;
            else if (s == ")" || s == "]" || s == "}") {
                if (k == sig_close) {
                    flush(k);
                    break;
                }
                --depth;
            } else if (s == "<")
                k = skipAngles(k + 1, sig_close + 1) - 1;
            else if (s == "," && depth == 0) {
                flush(k);
                item = k + 1;
            }
        }
    }
    f.node.arity_max = int(f.params.size());
    for (const Param &p : f.params)
        if (!p.has_default)
            ++f.node.arity_min;
    // `= default` / `= delete` / `= 0` after the signature.
    bool deleted = false;
    for (std::size_t k = sig_close; k < decl_end; ++k)
        if (tx(k) == "=" &&
            (tx(k + 1) == "default" || tx(k + 1) == "delete" ||
             tx(k + 1) == "0"))
            deleted = true;
    (void)deleted;

    const int fi = int(m_.fns.size());
    m_.fns.push_back(std::move(f));
    if (body) {
        m_.fns[fi].node.is_defined = true;
        std::size_t close = parseBody(decl_end, end, fi);
        return close;
    }
    return decl_end < end ? decl_end + 1 : end;
}

int
Parser::newLambda(int encloser, int line)
{
    FnInfo lam;
    const FnInfo &e = m_.fns[encloser];
    lam.node.cls = e.node.cls;
    char buf[32];
    std::snprintf(buf, sizeof buf, "<lambda@%d>", line);
    std::string q = e.node.cls.empty()
                        ? e.node.name
                        : e.node.cls + "::" + e.node.name;
    lam.node.name = q + "::" + buf;
    lam.node.file = rel_;
    lam.node.line = line;
    lam.node.is_defined = true;
    lam.encloser = encloser;
    // A synchronously-invoked lambda runs under whatever locks the
    // encloser holds at creation (cv.wait predicates, std::algorithm
    // comparators). Escaped lambdas get these cleared post-parse.
    lam.node.locks_held = e.node.locks_held;
    lam.lock_lines = e.lock_lines;
    const int idx = int(m_.fns.size());
    m_.fns.push_back(std::move(lam));
    return idx;
}

std::string
Parser::typeEndingAt(std::size_t name_idx)
{
    std::size_t k = name_idx;  // exclusive end
    while (k > 0 && (tx(k - 1) == "*" || tx(k - 1) == "&" ||
                     tx(k - 1) == "const"))
        --k;
    if (k == 0)
        return "";
    std::size_t e = k;
    if (tx(k - 1) == ">") {
        int depth = 0;
        while (k > 0) {
            if (tx(k - 1) == ">")
                ++depth;
            else if (tx(k - 1) == "<" && --depth == 0) {
                --k;
                break;
            } else if (tx(k - 1) == ";" || tx(k - 1) == "{" ||
                       tx(k - 1) == "}")
                return "";
            --k;
        }
        if (k == 0 || !isIdentStart(tx(k - 1)[0]))
            return "";
        --k;
    } else if (isIdentStart(tx(k - 1)[0])) {
        --k;
    } else {
        return "";
    }
    // Chain `A :: B` / leading const.
    while (k >= 2 && tx(k - 1) == "::" && isIdentStart(tx(k - 2)[0]))
        k -= 2;
    while (k > 0 && (tx(k - 1) == "const" || tx(k - 1) == "static" ||
                     tx(k - 1) == "constexpr"))
        --k;
    const std::string &head = tx(k);
    if (!isIdentStart(head[0]) || keywordSet().count(head) ||
        head == "else")
        return "";
    // The token *before* the type must start a statement-ish context.
    if (k > 0) {
        const std::string &p = tx(k - 1);
        if (p == "." || p == "->" || p == ")" || p == "]" ||
            isIdentStart(p[0]) || std::isdigit((unsigned char)p[0]))
            return "";
    }
    return joinTokens(t_, k, e);
}

void
Parser::recordLocalDecl(FnInfo &f, std::size_t name_idx)
{
    const std::string &name = tx(name_idx);
    if (keywordSet().count(name) || f.local_types.count(name))
        return;
    const std::string t = typeEndingAt(name_idx);
    if (!t.empty() && t != "return" && t != "auto")
        f.local_types[name] = t;
}

std::size_t
Parser::parseBody(std::size_t i, std::size_t end, int fn)
{
    const std::size_t close = skipBalanced(i, end);
    struct Frame
    {
        std::string recv, qual, name;
        int argc = 0;
        int line = 0;
        int pdepth = 0, cdepth = 0;
    };
    static const std::set<std::string> kTemplateNames = {
        "vector",   "map",        "unordered_map", "set",
        "unordered_set", "deque", "array",         "unique_ptr",
        "shared_ptr", "function", "InlineFunction", "lock_guard",
        "unique_lock", "scoped_lock", "atomic",    "optional",
        "pair",     "tuple",      "span",          "list",
        "priority_queue", "queue", "duration",     "time_point",
        "basic_string", "multimap", "bitset",      "variant"};
    static const std::set<std::string> kClocks = {
        "system_clock", "steady_clock", "high_resolution_clock"};
    std::vector<Frame> frames;
    int pdepth = 0, cdepth = 0;
    FnInfo *f = &m_.fns[fn];
    for (std::size_t j = i + 1; j + 1 < close; ++j) {
        const std::string &s = tx(j);
        if (s == "{") {
            ++cdepth;
            continue;
        }
        if (s == "}") {
            --cdepth;
            continue;
        }
        if (s == "(") {
            ++pdepth;
            // Callee ident right before the paren? Walk back over an
            // explicit template argument list first (make_unique<T>(),
            // std::get<0>(), ...) — bail on anything that cannot
            // appear inside one, so comparisons like `a > (b)` never
            // fabricate a call.
            std::size_t callee = 0;
            if (j > i && isIdentStart(tx(j - 1)[0])) {
                callee = j - 1;
            } else if (j > i + 1 && tx(j - 1) == ">") {
                int adepth = 1;
                for (std::size_t k = j - 1;
                     k-- > i && j - k < 40 && adepth > 0;) {
                    const std::string &a = tx(k);
                    if (a == ">")
                        ++adepth;
                    else if (a == "<")
                        --adepth;
                    else if (!isIdentStart(a[0]) && a != "::" &&
                             a != "," && a != "*" && a != "&")
                        break;
                    if (adepth == 0) {
                        if (k > i && isIdentStart(tx(k - 1)[0]))
                            callee = k - 1;
                        break;
                    }
                }
            }
            if (callee != 0) {
                Frame fr;
                fr.name = tx(callee);
                fr.line = ln(callee);
                fr.pdepth = pdepth;
                fr.cdepth = cdepth;
                fr.argc = tx(j + 1) == ")" ? 0 : 1;
                std::size_t p = callee;
                if (p > i && tx(p - 1) == "::" && p >= 2 &&
                    isIdentStart(tx(p - 2)[0]))
                    fr.qual = tx(p - 2);
                else if (p > i &&
                         (tx(p - 1) == "." || tx(p - 1) == "->") &&
                         p >= 2 && isIdentStart(tx(p - 2)[0]))
                    fr.recv = tx(p - 2);
                else if (p > i &&
                         (tx(p - 1) == "." || tx(p - 1) == "->") &&
                         p >= 2 && tx(p - 2) == ")")
                    fr.recv = kCallResult;
                frames.push_back(fr);
            }
            continue;
        }
        if (s == ")") {
            if (!frames.empty() && frames.back().pdepth == pdepth) {
                Frame fr = frames.back();
                frames.pop_back();
                if (!keywordSet().count(fr.name)) {
                    const bool named_recv =
                        !fr.recv.empty() && fr.recv != kCallResult;
                    if (fr.name == "reserve" || fr.name == "resize") {
                        if (named_recv)
                            f->reserved.insert(fr.recv);
                    } else if (fr.name == "push_back" ||
                               fr.name == "emplace_back") {
                        if (named_recv) {
                            f->growth_recvs.insert(fr.recv);
                            f->allocs.push_back(
                                {"vector-growth", fr.recv, fr.line});
                        }
                    } else if (fr.name == "malloc" ||
                               fr.name == "calloc" ||
                               fr.name == "realloc") {
                        f->allocs.push_back(
                            {fr.name + "()", "", fr.line});
                    } else if (fr.name == "make_unique" ||
                               fr.name == "make_shared") {
                        f->allocs.push_back(
                            {"std::" + fr.name, "", fr.line});
                    } else if (fr.name == "now" &&
                               kClocks.count(fr.qual)) {
                        f->taints.push_back(
                            {"wall-clock",
                             fr.qual + "::now()", fr.line});
                    } else if ((fr.name == "time" ||
                                fr.name == "gettimeofday" ||
                                fr.name == "clock_gettime") &&
                               fr.qual.empty() && fr.recv.empty()) {
                        f->taints.push_back(
                            {"wall-clock", fr.name + "()", fr.line});
                    }
                    f->calls.push_back({fr.recv, fr.qual, fr.name,
                                        fr.argc, fr.line});
                }
            }
            --pdepth;
            continue;
        }
        if (s == ",") {
            if (!frames.empty() &&
                frames.back().pdepth == pdepth &&
                frames.back().cdepth == cdepth)
                ++frames.back().argc;
            continue;
        }
        if (s == "[") {
            if (tx(j + 1) == "[") {  // [[attribute]]
                j = skipBalanced(j, close) - 1;
                continue;
            }
            const std::string &p = j > i ? tx(j - 1) : tx(i);
            const bool subscript =
                isIdentStart(p.empty() ? ' ' : p[0]) || p == ")" ||
                p == "]";
            if (subscript)
                continue;
            // Lambda: [caps] (params)? specifiers? { body }
            std::size_t cap_close = skipBalanced(j, close);
            std::size_t b = cap_close;
            if (tx(b) == "(")
                b = skipBalanced(b, close);
            while (b < close &&
                   (tx(b) == "mutable" || tx(b) == "noexcept" ||
                    tx(b) == "constexpr" || tx(b) == "->" ||
                    (isIdentStart(tx(b)[0]) && tx(b) != "return") ||
                    tx(b) == "::" || tx(b) == "<" || tx(b) == ">" ||
                    tx(b) == "*" || tx(b) == "&"))
                ++b;
            if (b >= close || tx(b) != "{") {
                continue;  // not a lambda after all
            }
            const int lam = newLambda(fn, ln(j));
            f = &m_.fns[fn];  // newLambda may reallocate
            FnInfo *lf = &m_.fns[lam];
            if (!frames.empty()) {
                const Frame &fr = frames.back();
                if (stdSkipSet().count(fr.name) ||
                    keywordSet().count(fr.name)) {
                    // Synchronous use (cv.wait predicate, std::sort
                    // comparator, container emplace): not escaped.
                } else {
                    lf->bind_call_name = fr.name;
                    lf->bind_call_qual = fr.qual;
                    lf->bind_call_recv = fr.recv;
                    lf->bind_arg = fr.argc - 1;
                }
            } else if (j >= i + 2 && tx(j - 1) == "=" &&
                       isIdentStart(tx(j - 2)[0])) {
                const std::string var = tx(j - 2);
                auto it = f->local_types.find(var);
                if (it != f->local_types.end())
                    lf->bind_var_type = it->second;
                else
                    lf->bind_var = var;
            }
            std::size_t after = parseBody(b, close, lam);
            f = &m_.fns[fn];
            j = after - 1;
            continue;
        }
        if (!isIdentStart(s[0]))
            continue;

        // ---- identifier ----
        f->idents.emplace(s, ln(j));
        if (s == "new") {
            f->allocs.push_back({"new", tx(j + 1), ln(j)});
            continue;
        }
        if (s == "random_device") {
            f->taints.push_back(
                {"random-device", "std::random_device", ln(j)});
            continue;
        }
        if (s == "function" && j >= 2 && tx(j - 1) == "::" &&
            tx(j - 2) == "std" && tx(j + 1) == "<") {
            f->allocs.push_back({"std::function", "", ln(j)});
        }
        if (s == "lock_guard" || s == "unique_lock" ||
            s == "scoped_lock") {
            std::size_t k = j + 1;
            if (tx(k) == "<")
                k = skipAngles(k + 1, close);
            if (k < close && isIdentStart(tx(k)[0]) &&
                (tx(k + 1) == "(" || tx(k + 1) == "{")) {
                std::size_t gend = skipBalanced(k + 1, close);
                std::string last;
                for (std::size_t a = k + 2; a + 1 < gend; ++a) {
                    if (isIdentStart(tx(a)[0]))
                        last = tx(a);
                    if (tx(a) == "," && !last.empty()) {
                        f->node.locks_held.push_back(last);
                        f->lock_lines.emplace(last, ln(j));
                        last.clear();
                    }
                }
                if (!last.empty()) {
                    f->node.locks_held.push_back(last);
                    f->lock_lines.emplace(last, ln(j));
                }
            }
            continue;
        }
        if (s == "for" && tx(j + 1) == "(") {
            // Range-for: record the range expression's last ident as
            // a taint *candidate*; the model pass checks its declared
            // type for unordered/pointer-keyed containers.
            std::size_t fend = skipBalanced(j + 1, close);
            std::size_t colon = 0;
            int d = 0;
            for (std::size_t a = j + 1; a < fend; ++a) {
                if (tx(a) == "(" || tx(a) == "[" || tx(a) == "{")
                    ++d;
                else if (tx(a) == ")" || tx(a) == "]" ||
                         tx(a) == "}")
                    --d;
                else if (tx(a) == ":" && d == 1) {
                    colon = a;
                    break;
                }
            }
            if (colon) {
                std::string last;
                for (std::size_t a = colon + 1; a + 1 < fend; ++a)
                    if (isIdentStart(tx(a)[0]))
                        last = tx(a);
                if (!last.empty())
                    f->taints.push_back(
                        {"range-for", last, ln(colon)});
            }
            continue;
        }
        if (j > i && tx(j - 1) == "&" && tx(j + 1) != "(" &&
            (j < 2 || !isIdentStart(tx(j - 2)[0])))
            m_.amp_names.insert(s);
        const std::string &nx = tx(j + 1);
        if ((nx == "=" || nx == ";" || nx == "(" || nx == "{") &&
            !keywordSet().count(s))
            recordLocalDecl(*f, j);
    }
    return close;
}

// ---------------------------------------------------------- engine

class Engine
{
public:
    Engine(Model &m, const Options &opt) : m_(m), opt_(opt) {}

    Result run();

private:
    Model &m_;
    const Options &opt_;
    Result res_;
    std::vector<bool> live_;
    std::map<std::string, std::vector<int>> by_name_;
    std::map<std::string, std::map<std::string, std::vector<int>>>
        methods_;
    std::map<std::string, std::string> unq_class_;
    std::map<std::string, std::set<std::string>> class_reserved_;
    struct E
    {
        int a, b, line;
        bool widened;
    };
    std::vector<E> edges_;
    std::vector<std::vector<int>> adj_;       // all edges
    std::vector<std::vector<int>> rev_tight_; // non-widened, reversed

    bool ruleEnabled(const std::string &rule) const
    {
        if (rule == "suppression" || opt_.rules.empty())
            return true;
        return std::find(opt_.rules.begin(), opt_.rules.end(),
                         rule) != opt_.rules.end();
    }

    void report(const std::string &rule, const std::string &file,
                int line, const std::string &msg)
    {
        if (!ruleEnabled(rule))
            return;
        for (FileIR &f : m_.files) {
            if (f.rel != file)
                continue;
            auto lit = f.allows.find(line);
            if (lit == f.allows.end())
                break;
            for (sm::Suppress &s : lit->second) {
                if (s.rule == rule && s.has_reason) {
                    s.used = true;
                    ++res_.suppressions_used;
                    return;
                }
            }
            break;
        }
        res_.violations.push_back({rule, file, line, msg});
    }

    static std::string qualifiedOf(const FnInfo &f)
    {
        if (f.node.name.find("<lambda@") != std::string::npos)
            return f.node.name;
        return f.node.cls.empty() ? f.node.name
                                  : f.node.cls + "::" + f.node.name;
    }
    static std::string idOf(const FnInfo &f)
    {
        return qualifiedOf(f) + "/" +
               std::to_string(f.node.arity_max);
    }
    static bool isLambda(const FnInfo &f) { return f.encloser >= 0; }

    /** Keys of the aliases @p name ("X" or "A::X") can mean inside
     *  class @p scope: the innermost enclosing match, retried with
     *  leading (namespace) qualifiers dropped; failing that, every
     *  alias named like its last component (e.g. an inherited one). */
    std::vector<std::string> aliasKeys(std::string name,
                                       const std::string &scope) const
    {
        for (;;) {
            for (std::string s = scope;;) {
                const std::string key = s.empty() ? name
                                                  : s + "::" + name;
                if (m_.aliases.count(key))
                    return {key};
                if (s.empty())
                    break;
                const std::size_t pos = s.rfind("::");
                s = pos == std::string::npos ? "" : s.substr(0, pos);
            }
            const std::size_t pos = name.find("::");
            if (pos == std::string::npos)
                break;
            name = name.substr(pos + 2);
        }
        std::vector<std::string> out;
        const std::string tail = "::" + name;
        for (const auto &kv : m_.aliases) {
            const std::string &k = kv.first;
            if (k.size() > tail.size() &&
                k.compare(k.size() - tail.size(), tail.size(), tail) ==
                    0)
                out.push_back(k);
        }
        return out;
    }

    /** Append to @p out the definition of every alias named in @p t
     *  (as seen from class @p scope), following alias chains. */
    void appendAliases(const std::string &t, const std::string &scope,
                       std::string &out,
                       std::set<std::string> &seen) const
    {
        // Re-join `A :: B` token runs into one qualified name.
        std::vector<std::string> names;
        bool join = false;
        std::istringstream is(t);
        for (std::string w; is >> w;) {
            if (w == "::") {
                join = !names.empty();
            } else if (join) {
                names.back() += "::" + w;
                join = false;
            } else {
                names.push_back(w);
            }
        }
        for (const std::string &n : names) {
            for (const std::string &key : aliasKeys(n, scope)) {
                if (!seen.insert(key).second)
                    continue;
                const Alias &a = m_.aliases.at(key);
                out += " " + a.def;
                appendAliases(a.def, a.scope, out, seen);
            }
        }
    }

    /** @p t followed by the expansion of the aliases it names. */
    std::string expandType(const std::string &t,
                           const std::string &scope) const
    {
        std::string out = t;
        std::set<std::string> seen;
        appendAliases(t, scope, out, seen);
        return out;
    }

    int universeOfType(const std::string &t,
                       const std::string &scope) const
    {
        if (t.empty())
            return kNotEscaped;
        const std::string e = expandType(t, scope);
        if (sm::containsWord(e, "InlineFunction"))
            return kInline;
        if (sm::containsWord(e, "function"))
            return kStdFn;
        return kNotEscaped;
    }

    /** Last word of (expanded) @p t naming a known class. */
    std::string classOfType(const std::string &t,
                            const std::string &scope) const
    {
        const std::string e = expandType(t, scope);
        std::istringstream is(e);
        std::string w, found;
        while (is >> w) {
            if (m_.classes.count(w))
                found = w;
            else if (unq_class_.count(w))
                found = unq_class_.at(w);
        }
        return found;
    }

    /** Declared type of @p name inside fn @p a: local, param, field
     *  of the owning class (walking outer classes for nesting). */
    std::string varType(int a, const std::string &name) const
    {
        const FnInfo &f = m_.fns[a];
        auto it = f.local_types.find(name);
        if (it != f.local_types.end())
            return it->second;
        for (const Param &p : f.params)
            if (p.name == name)
                return p.type;
        std::string cls = f.node.cls;
        while (!cls.empty()) {
            auto cit = m_.classes.find(cls);
            if (cit != m_.classes.end()) {
                auto fit = cit->second.fields.find(name);
                if (fit != cit->second.fields.end())
                    return fit->second.type;
            }
            std::size_t pos = cls.rfind("::");
            if (pos == std::string::npos)
                break;
            cls = cls.substr(0, pos);
        }
        if (isLambda(f) && f.encloser >= 0)
            return varType(f.encloser, name);
        return "";
    }

    void fixOutOfLine();
    void mergeAndIndex();
    void resolveLambdas();
    void buildEdges();
    void resolveCall(int a, const CallRec &c,
                     std::vector<std::pair<int, bool>> &out);
    void addIndirect(int universe,
                     std::vector<std::pair<int, bool>> &out);
    void checkLockDiscipline();
    void checkHotAlloc();
    void checkTaint();
    void checkSuppressionHygiene();
    void exportIr();
    std::string chainFrom(const std::map<int, int> &parent,
                          int fn) const;
};

void
Engine::fixOutOfLine()
{
    for (const auto &kv : m_.classes) {
        const std::string &q = kv.first;
        std::size_t pos = q.rfind("::");
        unq_class_[pos == std::string::npos ? q
                                            : q.substr(pos + 2)] = q;
    }
    for (FnInfo &f : m_.fns) {
        if (f.out_quals.empty())
            continue;
        std::string best;
        for (std::size_t k = 0; k < f.out_quals.size(); ++k) {
            std::string j;
            for (std::size_t a = k; a < f.out_quals.size(); ++a)
                j += (j.empty() ? "" : "::") + f.out_quals[a];
            if (m_.classes.count(j)) {
                best = j;
                break;
            }
        }
        if (best.empty()) {
            auto it = unq_class_.find(f.out_quals.back());
            best = it != unq_class_.end() ? it->second
                                          : f.out_quals.back();
        }
        f.node.cls = best;
        const std::string own =
            best.substr(best.rfind("::") == std::string::npos
                            ? 0
                            : best.rfind("::") + 2);
        f.is_ctor = !f.is_dtor && f.node.name == own;
        f.is_dtor = f.node.name == "~" + own;
    }
}

void
Engine::mergeAndIndex()
{
    live_.assign(m_.fns.size(), false);
    std::map<std::string, std::vector<int>> groups;
    for (std::size_t i = 0; i < m_.fns.size(); ++i) {
        const FnInfo &f = m_.fns[i];
        if (isLambda(f)) {
            live_[i] = true;
            continue;
        }
        groups[f.node.cls + "#" + f.node.name + "#" +
               std::to_string(f.node.arity_max)]
            .push_back(int(i));
    }
    for (auto &[key, idxs] : groups) {
        (void)key;
        std::set<std::string> req, exc;
        bool virt = false;
        std::vector<int> defined;
        for (int i : idxs) {
            const FnInfo &f = m_.fns[i];
            req.insert(f.node.requires_locks.begin(),
                       f.node.requires_locks.end());
            exc.insert(f.node.excludes_locks.begin(),
                       f.node.excludes_locks.end());
            virt = virt || f.node.is_virtual;
            if (f.node.is_defined)
                defined.push_back(i);
        }
        const std::vector<int> &lv =
            defined.empty() ? idxs : defined;
        for (std::size_t n = 0; n < lv.size(); ++n) {
            if (defined.empty() && n > 0)
                break;  // one representative for decl-only
            FnInfo &f = m_.fns[lv[n]];
            live_[lv[n]] = true;
            f.node.requires_locks.assign(req.begin(), req.end());
            f.node.excludes_locks.assign(exc.begin(), exc.end());
            f.node.is_virtual = virt;
        }
    }
    for (std::size_t i = 0; i < m_.fns.size(); ++i) {
        if (!live_[i])
            continue;
        const FnInfo &f = m_.fns[i];
        if (isLambda(f))
            continue;
        by_name_[f.node.name].push_back(int(i));
        if (!f.node.cls.empty())
            methods_[f.node.cls][f.node.name].push_back(int(i));
    }
    // Fields a class reserve()s in any of its methods (typically the
    // constructor) count as pre-sized everywhere in the class.
    for (std::size_t i = 0; i < m_.fns.size(); ++i) {
        if (!live_[i] || m_.fns[i].node.cls.empty())
            continue;
        const FnInfo &f = m_.fns[i];
        auto cit = m_.classes.find(f.node.cls);
        if (cit == m_.classes.end())
            continue;
        for (const std::string &r : f.reserved)
            if (cit->second.fields.count(r))
                class_reserved_[f.node.cls].insert(r);
    }
}

void
Engine::resolveLambdas()
{
    for (std::size_t i = 0; i < m_.fns.size(); ++i) {
        FnInfo &f = m_.fns[i];
        if (!isLambda(f))
            continue;
        int u = kNotEscaped;
        if (!f.bind_call_name.empty()) {
            CallRec c{f.bind_call_recv, f.bind_call_qual,
                      f.bind_call_name, f.bind_arg + 1, f.node.line};
            std::vector<std::pair<int, bool>> targets;
            resolveCall(f.encloser, c, targets);
            u = kBoth;  // unresolved target: assume either universe
            for (auto &[t, wid] : targets) {
                (void)wid;
                const FnInfo &g = m_.fns[t];
                if (f.bind_arg >= 0 &&
                    f.bind_arg < int(g.params.size())) {
                    u = universeOfType(g.params[f.bind_arg].type,
                                       g.node.cls);
                    break;
                }
            }
        } else if (!f.bind_var_type.empty()) {
            u = universeOfType(f.bind_var_type, f.node.cls);
        } else if (!f.bind_var.empty()) {
            u = universeOfType(varType(f.encloser, f.bind_var),
                               f.node.cls);
        }
        f.universe = u;
        if (u != kNotEscaped) {
            f.node.escaped_callback = true;
            // Runs later, on whatever thread invokes the callback —
            // the encloser's locks are long gone.
            f.node.locks_held.clear();
        }
    }
}

void
Engine::addIndirect(int universe,
                    std::vector<std::pair<int, bool>> &out)
{
    for (std::size_t i = 0; i < m_.fns.size(); ++i) {
        const FnInfo &f = m_.fns[i];
        if (isLambda(f) && (f.universe & universe))
            out.push_back({int(i), true});
    }
    for (const std::string &nm : m_.amp_names) {
        auto it = by_name_.find(nm);
        if (it == by_name_.end())
            continue;
        for (int i : it->second)
            out.push_back({i, true});
    }
}

void
Engine::resolveCall(int a, const CallRec &c,
                    std::vector<std::pair<int, bool>> &out)
{
    const FnInfo &caller = m_.fns[a];
    auto arityOk = [&](int i) {
        const FnInfo &f = m_.fns[i];
        return c.argc >= f.node.arity_min &&
               c.argc <= f.node.arity_max;
    };
    auto addAll = [&](const std::vector<int> &v, bool widened) {
        std::size_t before = out.size();
        for (int i : v)
            if (arityOk(i))
                out.push_back({i, widened});
        if (out.size() == before)  // arity miscount fallback
            for (int i : v)
                out.push_back({i, widened});
        return out.size() > before;
    };
    auto widenVirtual = [&](std::size_t first_new) {
        bool virt = false;
        for (std::size_t k = first_new; k < out.size(); ++k)
            virt = virt || m_.fns[out[k].first].node.is_virtual;
        if (!virt)
            return;
        auto it = by_name_.find(c.name);
        if (it == by_name_.end())
            return;
        for (int i : it->second) {
            bool dup = false;
            for (auto &p : out)
                dup = dup || p.first == i;
            if (!dup && !m_.fns[i].node.cls.empty() && arityOk(i))
                out.push_back({i, true});
        }
    };
    auto tryClassMethods = [&](const std::string &cls) {
        auto mit = methods_.find(cls);
        if (mit == methods_.end())
            return false;
        auto nit = mit->second.find(c.name);
        if (nit == mit->second.end())
            return false;
        std::size_t first = out.size();
        if (!addAll(nit->second, false))
            return false;
        widenVirtual(first);
        return true;
    };
    auto tryFieldIndirect = [&](const std::string &cls) {
        auto cit = m_.classes.find(cls);
        if (cit == m_.classes.end())
            return false;
        auto fit = cit->second.fields.find(c.name);
        if (fit == cit->second.fields.end())
            return false;
        int u = universeOfType(fit->second.type, cls);
        if (!u)
            return false;
        addIndirect(u, out);
        return true;
    };

    if (!c.qual.empty()) {
        std::string cls = c.qual;
        auto uit = unq_class_.find(c.qual);
        if (uit != unq_class_.end())
            cls = uit->second;
        if (m_.classes.count(cls)) {
            if (tryFieldIndirect(cls) || tryClassMethods(cls))
                return;
            return;  // known class, unknown member: std/base — skip
        }
        // Namespace-qualified free function (fleetio::, detail::).
        auto it = by_name_.find(c.name);
        if (it != by_name_.end()) {
            std::vector<int> frees;
            for (int i : it->second)
                if (m_.fns[i].node.cls.empty())
                    frees.push_back(i);
            addAll(frees, false);
        }
        return;
    }

    if (!c.recv.empty() && c.recv != "this") {
        const std::string t = varType(a, c.recv);
        if (!t.empty()) {
            const std::string cls = classOfType(t, caller.node.cls);
            if (!cls.empty()) {
                if (tryFieldIndirect(cls) || tryClassMethods(cls))
                    return;
                return;  // known class, unknown member
            }
            // std:: container/smart-ptr receiver: the call either is
            // a known-generic method (skip) or punches through the
            // pointee — conservatively widen on non-generic names.
        }
        if (stdSkipSet().count(c.name))
            return;
        auto it = by_name_.find(c.name);
        if (it != by_name_.end())
            addAll(it->second, true);
        return;
    }

    // Bare call (or this->): own class chain, callback variables,
    // then free functions.
    std::string cls = caller.node.cls;
    while (!cls.empty()) {
        if (tryFieldIndirect(cls) || tryClassMethods(cls))
            return;
        std::size_t pos = cls.rfind("::");
        if (pos == std::string::npos)
            break;
        cls = cls.substr(0, pos);
    }
    {
        int u = universeOfType(varType(a, c.name), caller.node.cls);
        if (u) {
            addIndirect(u, out);
            return;
        }
    }
    auto it = by_name_.find(c.name);
    if (it != by_name_.end()) {
        std::vector<int> frees;
        for (int i : it->second)
            if (m_.fns[i].node.cls.empty())
                frees.push_back(i);
        if (!frees.empty())
            addAll(frees, false);
    }
}

void
Engine::buildEdges()
{
    std::set<std::tuple<int, int, bool>> seen;
    auto push = [&](int a, int b, int line, bool wid) {
        if (a == b)
            return;
        if (seen.insert({a, b, wid}).second)
            edges_.push_back({a, b, line, wid});
    };
    for (std::size_t i = 0; i < m_.fns.size(); ++i) {
        if (!live_[i] || !m_.fns[i].node.is_defined)
            continue;
        if (isLambda(m_.fns[i]))
            push(m_.fns[i].encloser, int(i), m_.fns[i].node.line,
                 false);
        // NB: m_.fns[i].calls copied up-front — resolveCall does not
        // mutate fns, but keep iteration index-based regardless.
        const std::vector<CallRec> calls = m_.fns[i].calls;
        for (const CallRec &c : calls) {
            std::vector<std::pair<int, bool>> targets;
            resolveCall(int(i), c, targets);
            for (auto &[t, wid] : targets)
                if (live_[t])
                    push(int(i), t, c.line, wid);
        }
    }
    adj_.assign(m_.fns.size(), {});
    rev_tight_.assign(m_.fns.size(), {});
    for (std::size_t e = 0; e < edges_.size(); ++e) {
        adj_[edges_[e].a].push_back(int(e));
        if (!edges_[e].widened)
            rev_tight_[edges_[e].b].push_back(edges_[e].a);
    }
}

void
Engine::checkLockDiscipline()
{
    // Guarded-field accesses.
    for (std::size_t i = 0; i < m_.fns.size(); ++i) {
        if (!live_[i] || !m_.fns[i].node.is_defined)
            continue;
        const FnInfo &f = m_.fns[i];
        if (f.is_ctor || f.is_dtor || f.node.cls.empty())
            continue;
        auto cit = m_.classes.find(f.node.cls);
        if (cit == m_.classes.end())
            continue;
        std::set<std::string> held(f.node.locks_held.begin(),
                                   f.node.locks_held.end());
        held.insert(f.node.requires_locks.begin(),
                    f.node.requires_locks.end());
        for (const auto &[fname, fi] : cit->second.fields) {
            if (fi.guarded_by.empty())
                continue;
            auto uit = f.idents.find(fname);
            if (uit == f.idents.end())
                continue;
            auto lit = f.lock_lines.find(fi.guarded_by);
            if (lit != f.lock_lines.end() && uit->second < lit->second &&
                !std::count(f.node.requires_locks.begin(),
                            f.node.requires_locks.end(), fi.guarded_by)) {
                report("lock-discipline", f.node.file, uit->second,
                       "field '" + fname + "' is FLEETIO_GUARDED_BY(" +
                           fi.guarded_by + ") but '" + qualifiedOf(f) +
                           "' accesses it before taking " +
                           fi.guarded_by + " at line " +
                           std::to_string(lit->second));
                continue;
            }
            if (held.count(fi.guarded_by))
                continue;
            report("lock-discipline", f.node.file, uit->second,
                   "field '" + fname + "' is FLEETIO_GUARDED_BY(" +
                       fi.guarded_by + ") but '" + qualifiedOf(f) +
                       "' accesses it without holding " +
                       fi.guarded_by +
                       " (take a lock_guard or mark the method "
                       "FLEETIO_REQUIRES)");
        }
    }
    // REQUIRES propagation / EXCLUDES re-entrancy over tight edges.
    for (const E &e : edges_) {
        if (e.widened)
            continue;
        const FnInfo &a = m_.fns[e.a];
        const FnInfo &b = m_.fns[e.b];
        if (a.is_ctor || a.is_dtor)
            continue;
        std::set<std::string> held(a.node.locks_held.begin(),
                                   a.node.locks_held.end());
        held.insert(a.node.requires_locks.begin(),
                    a.node.requires_locks.end());
        for (const std::string &mtx : b.node.requires_locks) {
            if (held.count(mtx))
                continue;
            report("lock-discipline", a.node.file, e.line,
                   "'" + qualifiedOf(a) + "' calls '" +
                       qualifiedOf(b) + "' which FLEETIO_REQUIRES(" +
                       mtx + ") without holding " + mtx +
                       "; chain: " + qualifiedOf(a) + " -> " +
                       qualifiedOf(b));
        }
        for (const std::string &mtx : b.node.excludes_locks) {
            if (!held.count(mtx))
                continue;
            report("lock-discipline", a.node.file, e.line,
                   "'" + qualifiedOf(a) + "' holds " + mtx +
                       " while calling '" + qualifiedOf(b) +
                       "' which is FLEETIO_EXCLUDES(" + mtx +
                       ") — re-entrant lock would deadlock");
        }
    }
    // Confined classes must not own synchronization primitives.
    for (const auto &[q, ci] : m_.classes) {
        if (!ci.confined)
            continue;
        for (const auto &[fname, fi] : ci.fields) {
            const std::string e = expandType(fi.type, q);
            if (sm::containsWord(e, "mutex") ||
                sm::containsWord(e, "shared_mutex") ||
                sm::containsWord(e, "atomic") ||
                sm::containsWord(e, "condition_variable")) {
                report("lock-discipline", ci.file, fi.line,
                       "FLEETIO_THREAD_CONFINED class '" + q +
                           "' declares synchronization member '" +
                           fname + "' (" + fi.type +
                           ") — confinement and internal locking "
                           "are mutually exclusive");
            }
        }
    }
}

std::string
Engine::chainFrom(const std::map<int, int> &parent, int fn) const
{
    std::vector<int> path{fn};
    auto it = parent.find(fn);
    while (it != parent.end() && it->second >= 0 &&
           path.size() < 24) {
        path.push_back(it->second);
        it = parent.find(it->second);
    }
    std::string chain;
    for (auto r = path.rbegin(); r != path.rend(); ++r)
        chain += (chain.empty() ? "" : " -> ") +
                 qualifiedOf(m_.fns[*r]);
    return chain;
}

void
Engine::checkHotAlloc()
{
    std::vector<std::string> roots = opt_.hot_roots;
    if (roots.empty())
        roots = {"EventQueue::step",
                 "EventQueue::runUntil",
                 "EventQueue::runAll",
                 "EventQueue::scheduleAt",
                 "EventQueue::scheduleAfter",
                 "IoScheduler::submit",
                 "Ftl::allocateWrite",
                 "Ftl::lookup",
                 "Ftl::remap",
                 "Ftl::allocateRelocation",
                 "Ftl::trim",
                 "Ftl::trimAll"};
    std::map<int, int> parent;
    std::deque<int> bfs;
    for (std::size_t i = 0; i < m_.fns.size(); ++i) {
        if (!live_[i])
            continue;
        const std::string q = qualifiedOf(m_.fns[i]);
        for (const std::string &r : roots)
            if (q == r && !parent.count(int(i))) {
                parent[int(i)] = -1;
                bfs.push_back(int(i));
            }
    }
    while (!bfs.empty()) {
        int a = bfs.front();
        bfs.pop_front();
        for (int ei : adj_[a]) {
            int b = edges_[ei].b;
            if (!parent.count(b)) {
                parent[b] = a;
                bfs.push_back(b);
            }
        }
    }
    for (auto &[i, p] : parent) {
        (void)p;
        res_.hot_reachable.insert(idOf(m_.fns[i]));
        const FnInfo &f = m_.fns[i];
        for (const Site &s : f.allocs) {
            if (s.kind == "vector-growth") {
                bool ok = f.reserved.count(s.detail);
                auto cit = class_reserved_.find(f.node.cls);
                ok = ok || (cit != class_reserved_.end() &&
                            cit->second.count(s.detail));
                if (ok)
                    continue;
            }
            std::string what = s.kind;
            if (!s.detail.empty())
                what += " of '" + s.detail + "'";
            report("hot-alloc", f.node.file, s.line,
                   "hot-path " + what + " in '" + qualifiedOf(f) +
                       "'; call chain: " + chainFrom(parent, i));
        }
    }
}

void
Engine::checkTaint()
{
    // Validate range-for candidates against declared container types.
    for (std::size_t i = 0; i < m_.fns.size(); ++i) {
        if (!live_[i])
            continue;
        FnInfo &f = m_.fns[i];
        std::vector<Site> kept;
        for (Site &s : f.taints) {
            if (s.kind != "range-for") {
                kept.push_back(s);
                continue;
            }
            const std::string t =
                expandType(varType(int(i), s.detail), f.node.cls);
            if (t.empty())
                continue;
            if (sm::containsWord(t, "unordered_map") ||
                sm::containsWord(t, "unordered_set")) {
                kept.push_back({"unordered-iteration",
                                s.detail + " (" + t + ")", s.line});
                continue;
            }
            if ((sm::containsWord(t, "map") ||
                 sm::containsWord(t, "set"))) {
                // Pointer-keyed ordered container: '*' before the
                // first top-level comma of the template args.
                std::size_t lt = t.find('<');
                std::size_t comma = t.find(',', lt);
                if (lt != std::string::npos &&
                    t.substr(lt, comma == std::string::npos
                                     ? std::string::npos
                                     : comma - lt)
                            .find('*') != std::string::npos)
                    kept.push_back({"pointer-keyed-iteration",
                                    s.detail + " (" + t + ")",
                                    s.line});
            }
        }
        f.taints = kept;
    }
    // Sink classification.
    static const char *kSinkIdents[] = {
        "ExperimentResult", "FLEETIO_PROBE", "Probe", "MetricsRegistry",
        "TraceRecorder", "AttributionHub"};
    static const std::set<std::string> kSinkClasses = {
        "Probe", "TraceRecorder", "MetricsRegistry", "AttributionHub"};
    auto sinkDesc = [&](int i) -> std::string {
        const FnInfo &f = m_.fns[i];
        if (!live_[i] || !f.node.is_defined)
            return "";
        if (f.node.name.rfind("decide", 0) == 0)
            return "agent decision";
        std::string base = f.node.cls;
        std::size_t pos = base.rfind("::");
        if (pos != std::string::npos)
            base = base.substr(pos + 2);
        if (kSinkClasses.count(base))
            return "trace/metric emission (" + base + ")";
        for (const char *w : kSinkIdents)
            if (f.idents.count(w))
                return std::string(w) == "ExperimentResult"
                           ? "experiment results"
                           : "trace/metric emission (" +
                                 std::string(w) + ")";
        return "";
    };
    std::vector<std::string> sink_of(m_.fns.size());
    for (std::size_t i = 0; i < m_.fns.size(); ++i)
        sink_of[i] = sinkDesc(int(i));
    // Propagate each source fn upward over tight reverse edges until
    // a sink is reached (tainted return values / side effects flow to
    // callers, not callees).
    for (std::size_t i = 0; i < m_.fns.size(); ++i) {
        if (!live_[i] || m_.fns[i].taints.empty())
            continue;
        std::map<int, int> parent;
        std::deque<int> bfs{int(i)};
        parent[int(i)] = -1;
        int sink = sink_of[i].empty() ? -1 : int(i);
        while (!bfs.empty() && sink < 0) {
            int a = bfs.front();
            bfs.pop_front();
            for (int caller : rev_tight_[a]) {
                if (parent.count(caller))
                    continue;
                parent[caller] = a;
                if (!sink_of[caller].empty()) {
                    sink = caller;
                    break;
                }
                bfs.push_back(caller);
            }
        }
        if (sink < 0)
            continue;
        // Chain source -> ... -> sink (parents point toward source).
        std::vector<int> path;
        for (int at = sink; at != -1; at = parent[at])
            path.push_back(at);
        std::string chain;
        for (auto r = path.rbegin(); r != path.rend(); ++r)
            chain += (chain.empty() ? "" : " -> ") +
                     qualifiedOf(m_.fns[*r]);
        const FnInfo &f = m_.fns[i];
        for (const Site &s : f.taints)
            report("determinism-taint", f.node.file, s.line,
                   s.kind + " (" + s.detail + ") in '" +
                       qualifiedOf(f) + "' flows into " +
                       sink_of[sink] + " via '" +
                       qualifiedOf(m_.fns[sink]) +
                       "'; chain: " + chain);
    }
}

void
Engine::checkSuppressionHygiene()
{
    static const std::set<std::string> kIds = [] {
        std::set<std::string> s;
        for (const RuleInfo &r : rules())
            s.insert(r.id);
        return s;
    }();
    for (const FileIR &f : m_.files) {
        for (const auto &[line, sups] : f.allows) {
            for (const sm::Suppress &s : sups) {
                if (!s.has_reason) {
                    res_.violations.push_back(
                        {"suppression", f.rel, line,
                         "allow(" + s.rule +
                             ") without a reason: write `// "
                             "fleetio-analyze: allow(" +
                             s.rule + "): <why>`"});
                } else if (!kIds.count(s.rule)) {
                    res_.violations.push_back(
                        {"suppression", f.rel, line,
                         "allow(" + s.rule +
                             ") names an unknown rule"});
                }
            }
        }
    }
}

void
Engine::exportIr()
{
    for (std::size_t i = 0; i < m_.fns.size(); ++i) {
        if (!live_[i])
            continue;
        FunctionNode n = m_.fns[i].node;
        n.id = idOf(m_.fns[i]);
        res_.functions.push_back(std::move(n));
    }
    for (const E &e : edges_) {
        if (!live_[e.a] || !live_[e.b])
            continue;
        res_.edges.push_back({idOf(m_.fns[e.a]), idOf(m_.fns[e.b]),
                              e.line, e.widened});
    }
}

Result
Engine::run()
{
    fixOutOfLine();
    mergeAndIndex();
    resolveLambdas();
    buildEdges();
    exportIr();
    checkLockDiscipline();
    checkHotAlloc();
    checkTaint();
    checkSuppressionHygiene();
    res_.files_scanned = m_.files.size();
    std::sort(res_.violations.begin(), res_.violations.end(),
              [](const Violation &a, const Violation &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
    return std::move(res_);
}

bool
skippedDir(const std::string &name)
{
    return name == ".git" || name == "lint_fixtures" ||
           name == "analyze_fixtures" || name.rfind("build", 0) == 0;
}

}  // namespace

const std::vector<RuleInfo> &
rules()
{
    static const std::vector<RuleInfo> kRules = {
        {"lock-discipline", "R9",
         "FLEETIO_GUARDED_BY/REQUIRES/EXCLUDES lock contracts hold "
         "on every interprocedural path"},
        {"hot-alloc", "R10",
         "no allocation (new/malloc/std::function/make_unique/"
         "unreserved vector growth) reachable from the hot-path "
         "roots"},
        {"determinism-taint", "R11",
         "wall clock / random_device / unordered iteration order "
         "must not flow into results, traces, or agent decisions"},
        {"suppression", "-",
         "fleetio-analyze: allow(<rule>) must carry a reason and "
         "name a real rule"},
    };
    return kRules;
}

const FunctionNode *
Result::lookup(const std::string &qualified) const
{
    for (const FunctionNode &f : functions)
        if (f.id == qualified ||
            f.id.rfind(qualified + "/", 0) == 0)
            return &f;
    return nullptr;
}

bool
Result::hotReachable(const std::string &qualified) const
{
    for (const std::string &id : hot_reachable)
        if (id == qualified || id.rfind(qualified + "/", 0) == 0)
            return true;
    return false;
}

std::vector<std::string>
Result::calleesOf(const std::string &qualified) const
{
    std::vector<std::string> out;
    for (const CallEdge &e : edges)
        if (e.caller == qualified ||
            e.caller.rfind(qualified + "/", 0) == 0)
            out.push_back(e.callee);
    return out;
}

Result
runAnalyze(const std::string &root, const Options &opts)
{
    Model m;
    std::vector<std::string> dirs = opts.scan_dirs;
    if (dirs.empty())
        dirs = {"src"};
    std::vector<fs::path> paths;
    for (const std::string &d : dirs) {
        const fs::path base = fs::path(root) / d;
        if (!fs::is_directory(base))
            continue;
        auto it = fs::recursive_directory_iterator(base);
        for (auto end = fs::end(it); it != end; ++it) {
            if (it->is_directory()) {
                if (skippedDir(it->path().filename().string()))
                    it.disable_recursion_pending();
                continue;
            }
            const std::string ext = it->path().extension().string();
            if (ext == ".h" || ext == ".hpp" || ext == ".cc" ||
                ext == ".cpp")
                paths.push_back(it->path());
        }
    }
    std::sort(paths.begin(), paths.end());
    for (const fs::path &p : paths) {
        std::string text;
        if (!sm::readFile(p.string(), text))
            continue;
        const std::string stripped = sm::stripCode(text);
        FileIR fir;
        fir.rel = fs::relative(p, root).generic_string();
        fir.allows = sm::parseAllows(sm::splitLines(text),
                                     sm::splitLines(stripped),
                                     "fleetio-analyze:");
        m.files.push_back(std::move(fir));
        Parser(m, m.files.back().rel, tokenize(stripped)).run();
    }
    Engine e(m, opts);
    return e.run();
}

void
writeHuman(std::ostream &os, const Result &r)
{
    for (const Violation &v : r.violations) {
        os << v.file << ":" << v.line << ": [" << v.rule << "] "
           << v.message << "\n";
    }
    os << (r.clean() ? "fleetio-analyze: clean"
                     : "fleetio-analyze: FAILED")
       << " (" << r.files_scanned << " files, "
       << r.functions.size() << " functions, " << r.edges.size()
       << " call edges, " << r.violations.size() << " violation"
       << (r.violations.size() == 1 ? "" : "s") << ", "
       << r.suppressions_used << " suppression"
       << (r.suppressions_used == 1 ? "" : "s") << " used)\n";
}

namespace {

std::string
jsonEscaped(const std::string &s)
{
    std::string out;
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if ((unsigned char)c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

}  // namespace

void
writeJson(std::ostream &os, const Result &r, const std::string &root)
{
    std::map<std::string, std::size_t> counts;
    for (const RuleInfo &ri : rules())
        counts[ri.id] = 0;
    for (const Violation &v : r.violations)
        ++counts[v.rule];
    os << "{\n  \"schema\": \"fleetio-analyze-v1\",\n  \"root\": \""
       << jsonEscaped(root) << "\",\n  \"files_scanned\": "
       << r.files_scanned << ",\n  \"suppressions_used\": "
       << r.suppressions_used << ",\n  \"ir\": {\"functions\": "
       << r.functions.size() << ", \"call_edges\": "
       << r.edges.size() << ", \"hot_reachable\": "
       << r.hot_reachable.size() << "},\n  \"rule_counts\": {";
    bool first = true;
    for (const auto &[id, n] : counts) {
        os << (first ? "" : ", ") << "\"" << id << "\": " << n;
        first = false;
    }
    os << "},\n  \"violations\": [";
    for (std::size_t i = 0; i < r.violations.size(); ++i) {
        const Violation &v = r.violations[i];
        os << (i ? "," : "") << "\n    {\"rule\": \""
           << jsonEscaped(v.rule) << "\", \"file\": \""
           << jsonEscaped(v.file) << "\", \"line\": " << v.line
           << ", \"message\": \"" << jsonEscaped(v.message)
           << "\"}";
    }
    os << (r.violations.empty() ? "]" : "\n  ]") << "\n}\n";
}

}  // namespace fleetio::analyze
