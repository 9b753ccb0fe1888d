#include "tools/fleetio_lint/lint.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <map>
#include <ostream>
#include <set>

#include "tools/fleetio_lint/source_model.h"

namespace fs = std::filesystem;

namespace fleetio::lint {

namespace {

// ---------------------------------------------------------------- rules

const std::vector<RuleInfo> kRules = {
    {"nondeterminism", "R1",
     "no wall-clock or libc RNG in deterministic code (src/**)"},
    {"hotpath", "R2",
     "no std::function / iostream / throwing std::stoi-family in "
     "src/{sim,ssd,virt}"},
    {"probe-macro", "R3",
     "instrumentation emits (obs::Probe events, TraceRecorder / "
     "AttributionHub emits) outside src/obs go through FLEETIO_PROBE / "
     "FLEETIO_PROBE_SCOPE"},
    {"layering", "R4",
     "src/{sim,ssd} must not include src/{rl,policies,harness,obs}; "
     "src/virt must not include the tenant control plane "
     "(src/core/{tenant_admission,elastic_tenancy}.h)"},
    {"header-hygiene", "R5",
     "headers use #pragma once and never `using namespace`"},
    {"build-registration", "R6",
     "every .cc/.cpp is listed in a CMakeLists.txt"},
    {"journal-api", "R7",
     "block-state mutations in src/{ssd,harvest} go through "
     "FlashDevice's durable* journal API"},
    {"suppression", "-",
     "fleetio-lint: allow(...) requires a non-empty reason"},
};

// --------------------------------------------------------------- lexer
// The comment/string stripper, word/call matchers and file I/O live in
// the shared source-model layer (source_model.{h,cc}) so fleetio-lint
// and fleetio-analyze agree on what "code" is.

using srcmodel::callLike;
using srcmodel::containsWord;
using srcmodel::isWordChar;
using srcmodel::splitLines;
using srcmodel::stripCode;
using srcmodel::Suppress;

bool
readFile(const fs::path &p, std::string &out)
{
    return srcmodel::readFile(p.string(), out);
}

bool
writeFile(const fs::path &p, const std::string &text)
{
    return srcmodel::writeFile(p.string(), text);
}

/** `time(` only counts with a clearly wall-clock argument shape. */
bool
wallClockTimeCall(const std::string &line)
{
    for (std::size_t pos = line.find("time"); pos != std::string::npos;
         pos = line.find("time", pos + 1)) {
        if (pos > 0 && isWordChar(line[pos - 1]))
            continue;
        std::size_t j = pos + 4;
        while (j < line.size() && std::isspace((unsigned char)line[j]))
            ++j;
        if (j >= line.size() || line[j] != '(')
            continue;
        ++j;
        while (j < line.size() && std::isspace((unsigned char)line[j]))
            ++j;
        const std::string rest = line.substr(j);
        if (rest.rfind(")", 0) == 0 || rest.rfind("nullptr", 0) == 0 ||
            rest.rfind("NULL", 0) == 0 || rest.rfind("0", 0) == 0)
            return true;
    }
    return false;
}

// ------------------------------------------------------ per-file model

struct IncludeEdge
{
    int line = 0;
    std::string target;  ///< as written, e.g. "src/obs/trace.h"
    bool quoted = false;
    bool suppressed = false;  ///< allow(layering) on the include line
};

struct FileInfo
{
    std::string rel;   ///< path relative to root, '/'-separated
    std::vector<std::string> raw;   ///< raw lines
    std::vector<std::string> code;  ///< comment/string-stripped lines
    std::map<int, std::vector<Suppress>> allows;  ///< line -> allows
    std::vector<IncludeEdge> includes;

    bool isHeader() const
    {
        return rel.size() > 2 && (rel.rfind(".h") == rel.size() - 2 ||
                                  rel.rfind(".hpp") == rel.size() - 4);
    }
    bool under(const char *prefix) const
    {
        return rel.rfind(prefix, 0) == 0;
    }
};

std::string
toRel(const fs::path &p, const fs::path &root)
{
    return fs::relative(p, root).generic_string();
}

/** Parse inline suppression comments (syntax documented in lint.h). */
void
parseAllows(FileInfo &f)
{
    f.allows = srcmodel::parseAllows(f.raw, f.code, "fleetio-lint:");
}

void
parseIncludes(FileInfo &f)
{
    for (std::size_t li = 0; li < f.raw.size(); ++li) {
        const std::string &line = f.raw[li];
        std::size_t p = line.find_first_not_of(" \t");
        if (p == std::string::npos || line[p] != '#')
            continue;
        p = line.find("include", p);
        if (p == std::string::npos)
            continue;
        p = line.find_first_of("\"<", p + 7);
        if (p == std::string::npos)
            continue;
        const char closer = line[p] == '"' ? '"' : '>';
        const std::size_t end = line.find(closer, p + 1);
        if (end == std::string::npos)
            continue;
        IncludeEdge e;
        e.line = int(li) + 1;
        e.target = line.substr(p + 1, end - p - 1);
        e.quoted = closer == '"';
        auto it = f.allows.find(e.line);
        if (it != f.allows.end()) {
            for (Suppress &s : it->second) {
                if (s.rule == "layering" && s.has_reason) {
                    e.suppressed = true;
                    s.used = true;
                }
            }
        }
        f.includes.push_back(e);
    }
}

// ------------------------------------------------------------- context

struct Ctx
{
    fs::path root;
    Options opts;
    std::vector<FileInfo> files;
    /** CMakeLists contents keyed by their directory relpath (""=root). */
    std::map<std::string, std::string> cmake;
    Result result;

    bool
    ruleEnabled(const std::string &id) const
    {
        return opts.rules.empty() ||
               std::find(opts.rules.begin(), opts.rules.end(), id) !=
                   opts.rules.end();
    }

    /** Report unless an allow(rule) with a reason covers the line. */
    void
    report(FileInfo &f, int line, const std::string &rule,
           const std::string &message)
    {
        auto it = f.allows.find(line);
        if (it != f.allows.end()) {
            for (Suppress &s : it->second) {
                if (s.rule == rule && s.has_reason) {
                    s.used = true;
                    ++result.suppressions_used;
                    return;
                }
            }
        }
        result.violations.push_back({rule, f.rel, line, message});
    }
};

bool
skippedDir(const std::string &name)
{
    return name == ".git" || name == "lint_fixtures" ||
           name == "analyze_fixtures" || name.rfind("build", 0) == 0;
}

void
collectFiles(Ctx &ctx)
{
    static const char *kRoots[] = {"src", "tests", "bench", "examples",
                                   "tools"};
    std::vector<fs::path> paths;
    for (const char *r : kRoots) {
        const fs::path base = ctx.root / r;
        if (!fs::is_directory(base))
            continue;
        auto it = fs::recursive_directory_iterator(base);
        for (auto end = fs::end(it); it != end; ++it) {
            if (it->is_directory()) {
                if (skippedDir(it->path().filename().string()))
                    it.disable_recursion_pending();
                continue;
            }
            const std::string name = it->path().filename().string();
            const std::string ext = it->path().extension().string();
            if (name == "CMakeLists.txt") {
                std::string text;
                if (readFile(it->path(), text)) {
                    ctx.cmake[toRel(it->path().parent_path(),
                                    ctx.root)] = text;
                }
                continue;
            }
            if (ext == ".h" || ext == ".hpp" || ext == ".cc" ||
                ext == ".cpp")
                paths.push_back(it->path());
        }
    }
    std::sort(paths.begin(), paths.end());
    for (const fs::path &p : paths) {
        std::string text;
        if (!readFile(p, text))
            continue;
        FileInfo f;
        f.rel = toRel(p, ctx.root);
        if (ctx.opts.fix && f.rel.size() > 2 &&
            (p.extension() == ".h" || p.extension() == ".hpp")) {
            if (fixHeaderGuard(text)) {
                writeFile(p, text);
                ctx.result.fixed_files.push_back(f.rel);
            }
        }
        f.raw = splitLines(text);
        f.code = splitLines(stripCode(text));
        while (f.code.size() < f.raw.size())
            f.code.push_back("");
        parseAllows(f);
        parseIncludes(f);
        ctx.files.push_back(std::move(f));
    }
    ctx.result.files_scanned = ctx.files.size();
}

// ------------------------------------------------------------ R1 / R2

void
checkNondeterminism(Ctx &ctx, FileInfo &f)
{
    if (!f.under("src/"))
        return;
    static const char *kIdents[] = {"system_clock", "steady_clock",
                                    "high_resolution_clock",
                                    "random_device", "gettimeofday",
                                    "clock_gettime", "localtime",
                                    "timeofday"};
    for (std::size_t li = 0; li < f.code.size(); ++li) {
        const std::string &line = f.code[li];
        if (line.empty())
            continue;
        for (const char *id : kIdents) {
            if (containsWord(line, id)) {
                ctx.report(f, int(li) + 1, "nondeterminism",
                           std::string("banned nondeterminism source "
                                       "'") +
                               id +
                               "': deterministic code must use sim "
                               "time / seeded Rng");
            }
        }
        if (callLike(line, "rand") || callLike(line, "srand")) {
            ctx.report(f, int(li) + 1, "nondeterminism",
                       "banned libc RNG (rand/srand): use the seeded "
                       "fleetio::Rng");
        }
        if (callLike(line, "clock") || wallClockTimeCall(line)) {
            ctx.report(f, int(li) + 1, "nondeterminism",
                       "banned wall-clock call (time/clock): "
                       "deterministic code must use sim time");
        }
    }
}

void
checkHotPath(Ctx &ctx, FileInfo &f)
{
    if (!(f.under("src/sim/") || f.under("src/ssd/") ||
          f.under("src/virt/")))
        return;
    static const char *kStoi[] = {"std::stoi",  "std::stol",
                                  "std::stoll", "std::stoul",
                                  "std::stoull", "std::stof",
                                  "std::stod",  "std::stold"};
    for (const IncludeEdge &e : f.includes) {
        if (!e.quoted && e.target == "iostream") {
            ctx.report(f, e.line, "hotpath",
                       "<iostream> in hot-path code: stream state and "
                       "locale machinery do not belong in src/{sim,"
                       "ssd,virt}");
        }
    }
    for (std::size_t li = 0; li < f.code.size(); ++li) {
        const std::string &line = f.code[li];
        if (line.empty())
            continue;
        if (line.find("std::function<") != std::string::npos) {
            ctx.report(f, int(li) + 1, "hotpath",
                       "std::function in hot-path code: use "
                       "fleetio::InlineFunction (src/sim/"
                       "inline_function.h) — no per-callback "
                       "allocation");
        }
        if (containsWord(line, "std::cout") ||
            containsWord(line, "std::cerr") ||
            containsWord(line, "std::clog")) {
            ctx.report(f, int(li) + 1, "hotpath",
                       "iostream writes in hot-path code: report "
                       "through stats/obs instead");
        }
        for (const char *s : kStoi) {
            // containsWord can't span "::", so anchor on the full
            // qualified name and check the right boundary only.
            const std::size_t pos = line.find(s);
            if (pos != std::string::npos &&
                (pos + std::string(s).size() >= line.size() ||
                 !isWordChar(line[pos + std::string(s).size()]))) {
                ctx.report(f, int(li) + 1, "hotpath",
                           std::string(s) +
                               " throws on malformed input: use the "
                               "exception-free parsers in "
                               "src/core/env.h");
            }
        }
    }
}

// ----------------------------------------------------------------- R3

void
checkProbeMacro(Ctx &ctx, FileInfo &f)
{
    if (!f.under("src/") || f.under("src/obs/"))
        return;
    // obs::Probe events, then the TraceRecorder / AttributionHub emits
    // behind them. Export/introspection (writeChromeJson, blame, calls,
    // ...) is cold-path and exempt.
    static const char *kEmits[] = {
        "ioSubmit", "ioDispatch", "ioPageIssued", "ioZeroFill",
        "ioComplete", "flashRead", "flashProgram", "flashErase",
        "flashCrash", "enterScope", "exitScope", "gcBatch", "gsbEvent",
        "tenantAdded", "windowBoundary", "counterSample", "agentDecide",
        "agentReward", "agentTrip", "gcOp", "setTrackName", "noteRead",
        "noteProgram", "noteErase", "finishHostPage", "zeroFillPage",
        "recordRequest", "resetRequest", "noteHarvest", "pushContext",
        "popContext"};
    for (std::size_t li = 0; li < f.code.size(); ++li) {
        const std::string &line = f.code[li];
        if (line.empty() ||
            line.find("FLEETIO_PROBE") != std::string::npos)
            continue;
        for (const char *m : kEmits) {
            // Receiver-qualified call: `x->m(` or `x.m(`. Bare `m(`
            // is the macro's second argument — already guarded.
            for (std::size_t pos = line.find(m);
                 pos != std::string::npos;
                 pos = line.find(m, pos + 1)) {
                const bool dot = pos >= 1 && line[pos - 1] == '.';
                const bool arrow = pos >= 2 &&
                                   line[pos - 2] == '-' &&
                                   line[pos - 1] == '>';
                if (!dot && !arrow)
                    continue;
                std::size_t j = pos + std::string(m).size();
                if (j < line.size() && isWordChar(line[j]))
                    continue;
                while (j < line.size() &&
                       std::isspace((unsigned char)line[j]))
                    ++j;
                if (j >= line.size() || line[j] != '(')
                    continue;
                ctx.report(f, int(li) + 1, "probe-macro",
                           std::string("raw instrumentation emit ") + m +
                               " outside src/obs: use FLEETIO_PROBE("
                               "probe, " + m + "(...)) or FLEETIO_PROBE_"
                               "SCOPE so it null-guards and compiles out");
            }
        }
    }
}

// ----------------------------------------------------------------- R4

bool
restrictedLayer(const std::string &rel)
{
    return rel.rfind("src/sim/", 0) == 0 ||
           rel.rfind("src/ssd/", 0) == 0;
}

bool
bannedLayer(const std::string &rel)
{
    return rel.rfind("src/rl/", 0) == 0 ||
           rel.rfind("src/policies/", 0) == 0 ||
           rel.rfind("src/harness/", 0) == 0 ||
           rel.rfind("src/obs/", 0) == 0;
}

/**
 * Tenant control-plane headers: admission and elastic-tenancy logic
 * that sits ABOVE the data plane. src/virt is mechanism (carve,
 * tiers, drain); policy decisions must stay in src/core so a static
 * build never links churn machinery into the I/O path.
 */
bool
controlPlaneHeader(const std::string &rel)
{
    return rel == "src/core/tenant_admission.h" ||
           rel == "src/core/elastic_tenancy.h";
}

void
checkLayering(Ctx &ctx)
{
    // Include graph over project-quoted includes ("src/...").
    std::map<std::string, const FileInfo *> by_rel;
    for (const FileInfo &f : ctx.files)
        by_rel[f.rel] = &f;

    for (FileInfo &f : ctx.files) {
        if (f.rel.rfind("src/virt/", 0) != 0)
            continue;
        for (const IncludeEdge &e : f.includes) {
            if (!e.quoted || e.suppressed)
                continue;
            if (controlPlaneHeader(e.target)) {
                ctx.report(f, e.line, "layering",
                           f.rel + " includes " + e.target +
                               ": src/virt is data-plane mechanism "
                               "and must not include the tenant "
                               "control plane");
            }
        }
    }

    for (FileInfo &f : ctx.files) {
        if (!restrictedLayer(f.rel))
            continue;
        for (const IncludeEdge &e : f.includes) {
            if (!e.quoted || e.target.rfind("src/", 0) != 0 ||
                e.suppressed)
                continue;
            if (bannedLayer(e.target)) {
                ctx.report(f, e.line, "layering",
                           f.rel + " includes " + e.target +
                               ": src/{sim,ssd} must stay below "
                               "src/{rl,policies,harness,obs}");
                continue;
            }
            // Transitive reach through non-restricted intermediates.
            // Restricted intermediates are not expanded — their own
            // direct edges answer for them.
            std::vector<std::string> stack{e.target};
            std::map<std::string, std::string> parent;
            parent[e.target] = f.rel;
            std::string hit;
            while (!stack.empty() && hit.empty()) {
                const std::string cur = stack.back();
                stack.pop_back();
                if (restrictedLayer(cur))
                    continue;
                auto it = by_rel.find(cur);
                if (it == by_rel.end())
                    continue;
                for (const IncludeEdge &ce : it->second->includes) {
                    if (!ce.quoted || ce.suppressed ||
                        ce.target.rfind("src/", 0) != 0)
                        continue;
                    if (parent.count(ce.target))
                        continue;
                    parent[ce.target] = cur;
                    if (bannedLayer(ce.target)) {
                        hit = ce.target;
                        break;
                    }
                    stack.push_back(ce.target);
                }
            }
            if (!hit.empty()) {
                std::string chain = hit;
                for (std::string n = parent[hit]; n != f.rel;
                     n = parent[n])
                    chain = n + " -> " + chain;
                ctx.report(f, e.line, "layering",
                           f.rel + " transitively reaches " + hit +
                               " (via " + chain +
                               "): src/{sim,ssd} must stay below "
                               "src/{rl,policies,harness,obs}");
            }
        }
    }
}

// ----------------------------------------------------------------- R5

void
checkHeaderHygiene(Ctx &ctx, FileInfo &f)
{
    if (!f.isHeader())
        return;
    bool pragma = false;
    for (const std::string &line : f.code) {
        std::size_t p = line.find_first_not_of(" \t");
        if (p != std::string::npos && line[p] == '#' &&
            line.find("pragma", p) != std::string::npos &&
            line.find("once", p) != std::string::npos) {
            pragma = true;
            break;
        }
    }
    if (!pragma) {
        ctx.report(f, 1, "header-hygiene",
                   "header lacks #pragma once (fleetio_lint --fix "
                   "converts classic include guards)");
    }
    for (std::size_t li = 0; li < f.code.size(); ++li) {
        if (containsWord(f.code[li], "using namespace")) {
            ctx.report(f, int(li) + 1, "header-hygiene",
                       "`using namespace` in a header leaks into "
                       "every includer");
        }
    }
}

// ----------------------------------------------------------------- R6

void
checkBuildRegistration(Ctx &ctx, FileInfo &f)
{
    const std::string &rel = f.rel;
    const bool is_cc =
        rel.rfind(".cc") == rel.size() - 3 ||
        (rel.size() > 4 && rel.rfind(".cpp") == rel.size() - 4);
    if (!is_cc)
        return;
    const std::size_t slash = rel.find_last_of('/');
    const std::string base =
        slash == std::string::npos ? rel : rel.substr(slash + 1);
    const std::string stem = base.substr(0, base.find_last_of('.'));
    // Walk ancestor directories looking for a CMakeLists that mentions
    // the file (by dir-relative path, basename, or stem — the stem
    // covers foreach(${ex} ...) style lists).
    std::string dir = slash == std::string::npos ? ""
                                                 : rel.substr(0, slash);
    for (;;) {
        auto it = ctx.cmake.find(dir);
        if (it != ctx.cmake.end()) {
            const std::string &text = it->second;
            const std::string rel_from_dir =
                dir.empty() ? rel : rel.substr(dir.size() + 1);
            if (text.find(rel_from_dir) != std::string::npos ||
                text.find(base) != std::string::npos ||
                containsWord(stripCode(text), stem))
                return;
        }
        if (dir.empty())
            break;
        const std::size_t up = dir.find_last_of('/');
        dir = up == std::string::npos ? "" : dir.substr(0, up);
    }
    ctx.report(f, 1, "build-registration",
               rel + " is not listed in any CMakeLists.txt: it never "
                     "builds, so it can rot silently");
}

// ----------------------------------------------------------------- R7

/**
 * The journal-API surface itself: the chip/device primitives and the
 * durability model may touch raw block state; everything else in the
 * SSD and harvesting layers must route through FlashDevice::durable*
 * so crash recovery always sees a consistent OOB/summary record.
 */
bool
journalApiSurface(const std::string &rel)
{
    return rel == "src/ssd/flash_chip.h" ||
           rel == "src/ssd/flash_chip.cc" ||
           rel == "src/ssd/flash_device.h" ||
           rel == "src/ssd/flash_device.cc" ||
           rel == "src/ssd/durability.h" ||
           rel == "src/ssd/durability.cc";
}

void
checkJournalApi(Ctx &ctx, FileInfo &f)
{
    if (!(f.under("src/ssd/") || f.under("src/harvest/")))
        return;
    if (journalApiSurface(f.rel))
        return;
    static const char *kMutators[] = {"eraseBlock", "retireBlock",
                                      "releaseBlock", "closeBlock"};
    for (std::size_t li = 0; li < f.code.size(); ++li) {
        const std::string &line = f.code[li];
        if (line.empty())
            continue;
        for (const char *m : kMutators) {
            if (callLike(line, m)) {
                ctx.report(f, int(li) + 1, "journal-api",
                           std::string("direct ") + m +
                               " bypasses the durable-metadata "
                               "journal: call FlashDevice::durable* "
                               "so OOB/summary state survives a "
                               "crash");
            }
        }
    }
}

// ------------------------------------------------- bad suppressions

void
checkSuppressions(Ctx &ctx, FileInfo &f)
{
    static const std::set<std::string> kIds = [] {
        std::set<std::string> s;
        for (const RuleInfo &r : kRules)
            s.insert(r.id);
        return s;
    }();
    for (auto &[line, allows] : f.allows) {
        for (const Suppress &s : allows) {
            if (!s.has_reason) {
                ctx.result.violations.push_back(
                    {"suppression", f.rel, line,
                     "allow(" + s.rule +
                         ") without a reason: write `// fleetio-lint: "
                         "allow(" + s.rule + "): <why>`"});
            } else if (!kIds.count(s.rule)) {
                ctx.result.violations.push_back(
                    {"suppression", f.rel, line,
                     "allow(" + s.rule + ") names an unknown rule"});
            }
        }
    }
}

}  // namespace

// ---------------------------------------------------------- public API

const std::vector<RuleInfo> &
rules()
{
    return kRules;
}

bool
fixHeaderGuard(std::string &text)
{
    std::vector<std::string> lines = splitLines(text);
    const std::string code_text = stripCode(text);
    std::vector<std::string> code = splitLines(code_text);
    while (code.size() < lines.size())
        code.push_back("");

    /** Exact directive token of line li ("" when not a directive);
     *  when @p arg is non-null, also the first argument token. */
    auto directive = [&](std::size_t li,
                         std::string *arg) -> std::string {
        const std::string &line = code[li];
        std::size_t p = line.find_first_not_of(" \t");
        if (p == std::string::npos || line[p] != '#')
            return "";
        p = line.find_first_not_of(" \t", p + 1);
        if (p == std::string::npos)
            return "";
        std::size_t e = p;
        while (e < line.size() && isWordChar(line[e]))
            ++e;
        const std::string name = line.substr(p, e - p);
        if (arg) {
            const std::size_t a = line.find_first_not_of(" \t", e);
            if (a == std::string::npos) {
                arg->clear();
            } else {
                std::size_t ae = a;
                while (ae < line.size() && isWordChar(line[ae]))
                    ++ae;
                *arg = line.substr(a, ae - a);
            }
        }
        return name;
    };

    // Find `#ifndef G` whose next non-blank line is `#define G`.
    std::size_t guard_if = lines.size();
    std::size_t guard_def = lines.size();
    for (std::size_t li = 0; li < lines.size(); ++li) {
        std::string name;
        const std::string d = directive(li, &name);
        if (d == "pragma" &&
            code[li].find("once") != std::string::npos)
            return false;  // already converted
        if (d == "ifndef" && !name.empty()) {
            for (std::size_t dj = li + 1; dj < lines.size(); ++dj) {
                if (code[dj].find_first_not_of(" \t") ==
                    std::string::npos)
                    continue;
                std::string dname;
                if (directive(dj, &dname) == "define" &&
                    dname == name) {
                    guard_if = li;
                    guard_def = dj;
                }
                break;
            }
            break;  // only the first #ifndef can be the guard
        }
        if (d == "if" || d == "ifdef" || d == "include")
            break;  // real code before any guard
    }
    if (guard_if == lines.size())
        return false;

    // Find the matching #endif by depth.
    int depth = 1;
    std::size_t guard_end = lines.size();
    for (std::size_t li = guard_def + 1; li < lines.size(); ++li) {
        const std::string d = directive(li, nullptr);
        if (d == "if" || d == "ifdef" || d == "ifndef")
            ++depth;
        else if (d == "endif" && --depth == 0) {
            guard_end = li;
            break;
        }
    }
    if (guard_end == lines.size())
        return false;

    lines[guard_if] = "#pragma once";
    lines.erase(lines.begin() + guard_end);
    lines.erase(lines.begin() + guard_def);
    // Drop a blank line left dangling at EOF by the guard removal.
    while (!lines.empty() &&
           lines.back().find_first_not_of(" \t") == std::string::npos)
        lines.pop_back();

    std::string out;
    for (const std::string &l : lines) {
        out += l;
        out += '\n';
    }
    text = out;
    return true;
}

Result
runLint(const std::string &root, const Options &opts)
{
    Ctx ctx;
    ctx.root = fs::path(root);
    ctx.opts = opts;
    collectFiles(ctx);

    for (FileInfo &f : ctx.files) {
        if (ctx.ruleEnabled("nondeterminism"))
            checkNondeterminism(ctx, f);
        if (ctx.ruleEnabled("hotpath"))
            checkHotPath(ctx, f);
        if (ctx.ruleEnabled("probe-macro"))
            checkProbeMacro(ctx, f);
        if (ctx.ruleEnabled("header-hygiene"))
            checkHeaderHygiene(ctx, f);
        if (ctx.ruleEnabled("build-registration"))
            checkBuildRegistration(ctx, f);
        if (ctx.ruleEnabled("journal-api"))
            checkJournalApi(ctx, f);
    }
    if (ctx.ruleEnabled("layering"))
        checkLayering(ctx);
    for (FileInfo &f : ctx.files)
        checkSuppressions(ctx, f);

    std::sort(ctx.result.violations.begin(),
              ctx.result.violations.end(),
              [](const Violation &a, const Violation &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
    return std::move(ctx.result);
}

void
writeHuman(std::ostream &os, const Result &r)
{
    for (const Violation &v : r.violations) {
        os << v.file << ":" << v.line << ": [" << v.rule << "] "
           << v.message << "\n";
    }
    os << (r.clean() ? "fleetio-lint: clean" : "fleetio-lint: FAILED")
       << " (" << r.files_scanned << " files, "
       << r.violations.size() << " violation"
       << (r.violations.size() == 1 ? "" : "s") << ", "
       << r.suppressions_used << " suppression"
       << (r.suppressions_used == 1 ? "" : "s") << " used";
    if (!r.fixed_files.empty())
        os << ", " << r.fixed_files.size() << " files fixed";
    os << ")\n";
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
    os << "{\n  \"schema\": \"fleetio-lint-v1\",\n  \"root\": \""
       << jsonEscaped(root) << "\",\n  \"files_scanned\": "
       << r.files_scanned << ",\n  \"suppressions_used\": "
       << r.suppressions_used << ",\n  \"violations\": [";
    for (std::size_t i = 0; i < r.violations.size(); ++i) {
        const Violation &v = r.violations[i];
        os << (i ? "," : "") << "\n    {\"rule\": \""
           << jsonEscaped(v.rule) << "\", \"file\": \""
           << jsonEscaped(v.file) << "\", \"line\": " << v.line
           << ", \"message\": \"" << jsonEscaped(v.message) << "\"}";
    }
    os << (r.violations.empty() ? "]" : "\n  ]") << ",\n  \"fixed\": [";
    for (std::size_t i = 0; i < r.fixed_files.size(); ++i) {
        os << (i ? ", " : "") << "\"" << jsonEscaped(r.fixed_files[i])
           << "\"";
    }
    os << "]\n}\n";
}

}  // namespace fleetio::lint
