/**
 * @file
 * fleetio-analyze against the seeded fixture tree under
 * tests/analyze_fixtures/: every semantic rule (R9 lock-discipline,
 * R10 hot-alloc, R11 determinism-taint) is proven live by a fixture
 * that trips it and silenceable by a reasoned allow, and the
 * call-graph builder is checked on overload resolution,
 * method-vs-free shadowing, recursion cycles, and InlineFunction
 * indirect widening.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "tools/fleetio_lint/analyze.h"

namespace fleetio::analyze {
namespace {

std::string
fixturesRoot()
{
    return FLEETIO_ANALYZE_FIXTURES;
}

Result
runAll()
{
    return runAnalyze(fixturesRoot(), Options{});
}

Result
runRule(const std::string &rule)
{
    Options opts;
    opts.rules = {rule};
    return runAnalyze(fixturesRoot(), opts);
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

bool
anyMentions(const std::vector<Violation> &vs, const std::string &what)
{
    return std::any_of(vs.begin(), vs.end(), [&](const Violation &v) {
        return v.message.find(what) != std::string::npos;
    });
}

TEST(AnalyzeRegistry, ExposesSemanticRulesWithIssueTags)
{
    const auto &rs = rules();
    std::vector<std::string> ids;
    for (const RuleInfo &r : rs)
        ids.push_back(r.id);
    for (const char *want :
         {"lock-discipline", "hot-alloc", "determinism-taint",
          "suppression"}) {
        EXPECT_NE(std::find(ids.begin(), ids.end(), want), ids.end())
            << "missing rule " << want;
    }
}

TEST(AnalyzeIr, ParsesTheFixtureTree)
{
    const Result r = runAll();
    EXPECT_EQ(r.files_scanned, 8u);
    EXPECT_GT(r.functions.size(), 20u);
    EXPECT_GT(r.edges.size(), 10u);
}

// --------------------------------------------------- R9 lock-discipline

TEST(LockDiscipline, FlagsGuardedFieldAccessWithoutLock)
{
    const Result r = runRule("lock-discipline");
    const auto vs = inFile(r, "lock-discipline", "locks.h");
    ASSERT_FALSE(vs.empty());
    EXPECT_TRUE(anyMentions(vs, "sneak"));
    EXPECT_TRUE(anyMentions(vs, "balance_"));
    // Locked accessors stay clean.
    EXPECT_FALSE(anyMentions(vs, "deposit"));
    EXPECT_FALSE(anyMentions(vs, "settleLocked"));
}

TEST(LockDiscipline, PropagatesRequiresAcrossCalls)
{
    const Result r = runRule("lock-discipline");
    const auto vs = inFile(r, "lock-discipline", "locks.h");
    EXPECT_TRUE(anyMentions(vs, "settleRacy"));
    EXPECT_TRUE(anyMentions(vs,
                            "Account::settleRacy -> Account::settle"));
}

TEST(LockDiscipline, CatchesExcludesReentrancy)
{
    const Result r = runRule("lock-discipline");
    const auto vs = inFile(r, "lock-discipline", "locks.h");
    EXPECT_TRUE(anyMentions(vs, "publishDeadlock"));
}

TEST(LockDiscipline, ConfinedClassMustNotOwnSyncMembers)
{
    const Result r = runRule("lock-discipline");
    const auto vs = inFile(r, "lock-discipline", "locks.h");
    EXPECT_TRUE(anyMentions(vs, "Ledger"));
    // The mutex-free confined class stays clean.
    EXPECT_FALSE(anyMentions(vs, "Tally"));
}

TEST(LockDiscipline, ReasonedAllowSilencesTheFinding)
{
    const Result r = runRule("lock-discipline");
    const auto vs = inFile(r, "lock-discipline", "locks.h");
    EXPECT_FALSE(anyMentions(vs, "audited"));
    EXPECT_GE(r.suppressions_used, 1u);
    // Exactly the four seeded R9 violations, nothing else.
    EXPECT_EQ(vs.size(), 4u);
}

TEST(LockDiscipline, FlagsGuardedAccessBeforeTheLock)
{
    const Result r = runRule("lock-discipline");
    const auto vs = inFile(r, "lock-discipline", "lock_order.h");
    // A lock anywhere in the body does not cover the access made
    // before it; the same access after the lock stays clean.
    ASSERT_EQ(vs.size(), 1u);
    EXPECT_TRUE(anyMentions(vs, "Counter::bumpEarly"));
    EXPECT_TRUE(anyMentions(vs, "count_"));
    EXPECT_TRUE(anyMentions(vs, "before taking mu_"));
    EXPECT_FALSE(anyMentions(vs, "bumpLocked"));
}

// -------------------------------------------------------- R10 hot-alloc

TEST(HotAlloc, ReportsAllocationWithFullCallChain)
{
    const Result r = runRule("hot-alloc");
    const auto vs = inFile(r, "hot-alloc", "hot.cc");
    ASSERT_FALSE(vs.empty());
    EXPECT_TRUE(anyMentions(
        vs, "EventQueue::step -> EventQueue::dispatchOne -> spawn"));
}

TEST(HotAlloc, WidensIndirectInlineFunctionDispatchToLambdas)
{
    const Result r = runRule("hot-alloc");
    const auto vs = inFile(r, "hot-alloc", "hot.cc");
    EXPECT_TRUE(anyMentions(vs, "lambda"));
    EXPECT_TRUE(anyMentions(vs, "Runner::arm"));
    // The same dispatch through a field typed by a class-scoped alias
    // of another class's alias (Pump::Callback = EventQueue::Callback).
    EXPECT_TRUE(std::any_of(
        r.hot_reachable.begin(), r.hot_reachable.end(),
        [](const std::string &id) {
            return id.rfind("Pump::arm::<lambda@", 0) == 0;
        }));
    EXPECT_FALSE(r.calleesOf("Pump::fire").empty());
}

TEST(HotAlloc, OverloadResolutionPicksTheCalledArity)
{
    const Result r = runRule("hot-alloc");
    // Only scale(int) is called; the allocating 2-arg twin must not
    // be reached or flagged.
    EXPECT_TRUE(r.hotReachable("scale/1"));
    EXPECT_FALSE(r.hotReachable("scale/2"));
    const auto vs = inFile(r, "hot-alloc", "hot.cc");
    EXPECT_FALSE(anyMentions(vs, "'scale'"));
}

TEST(HotAlloc, MethodShadowsFreeFunction)
{
    const Result r = runRule("hot-alloc");
    // Mixer::mix's emit() binds to the method; the allocating free
    // emit() stays unreachable.
    EXPECT_TRUE(r.hotReachable("Mixer::emit/0"));
    EXPECT_FALSE(r.hotReachable("emit/0"));
    const auto vs = inFile(r, "hot-alloc", "hot.cc");
    EXPECT_FALSE(anyMentions(vs, "'emit'"));
}

TEST(HotAlloc, RecursionCycleTerminatesAndStaysReachable)
{
    const Result r = runRule("hot-alloc");
    EXPECT_TRUE(r.hotReachable("ping/1"));
    EXPECT_TRUE(r.hotReachable("pong/1"));
}

TEST(HotAlloc, ReasonedAllowSilencesVectorGrowth)
{
    const Result r = runRule("hot-alloc");
    const auto vs = inFile(r, "hot-alloc", "hot.cc");
    EXPECT_FALSE(anyMentions(vs, "Mixer::mix"));
    EXPECT_GE(r.suppressions_used, 1u);
    // Exactly the two seeded R10 violations: spawn + the widened
    // lambda.
    EXPECT_EQ(vs.size(), 2u);
}

TEST(HotAlloc, FollowsACallOnACallResult)
{
    const Result r = runRule("hot-alloc");
    // `pool().acquire()`: the receiver is a call, so acquire is
    // resolved by name rather than dropped.
    EXPECT_TRUE(r.hotReachable("Pool::acquire/0"));
    const auto vs = inFile(r, "hot-alloc", "chain.cc");
    ASSERT_EQ(vs.size(), 1u);
    EXPECT_TRUE(anyMentions(vs, "IoScheduler::submit -> Pool::acquire"));
}

TEST(HotAlloc, CustomRootsOverrideTheDefaults)
{
    Options opts;
    opts.rules = {"hot-alloc"};
    opts.hot_roots = {"Mixer::mix"};
    const Result r = runAnalyze(fixturesRoot(), opts);
    // From Mixer::mix nothing allocating is reachable (its own growth
    // is suppressed, emit() binds to the clean method).
    EXPECT_TRUE(inFile(r, "hot-alloc", "hot.cc").empty());
    EXPECT_FALSE(r.hotReachable("spawn/0"));
}

// ------------------------------------------------ R11 determinism-taint

TEST(DeterminismTaint, UnorderedIterationIntoResultSink)
{
    const Result r = runRule("determinism-taint");
    const auto vs = inFile(r, "determinism-taint", "taint.cc");
    ASSERT_EQ(vs.size(), 1u);
    EXPECT_TRUE(anyMentions(vs, "summarize"));
    EXPECT_TRUE(anyMentions(vs, "experiment results"));
    EXPECT_TRUE(anyMentions(vs,
                            "Collector::summarize -> Collector::fill"));
}

TEST(DeterminismTaint, UnorderedIterationIntoProbeSink)
{
    const Result r = runRule("determinism-taint");
    const auto vs = inFile(r, "determinism-taint", "probe_sink.cc");
    ASSERT_EQ(vs.size(), 1u);
    EXPECT_TRUE(anyMentions(vs, "FLEETIO_PROBE"));
    EXPECT_TRUE(anyMentions(vs, "Emitter::total -> Emitter::emit"));
}

TEST(DeterminismTaint, ReasonedAllowSilencesTheSource)
{
    const Result r = runRule("determinism-taint");
    const auto vs = inFile(r, "determinism-taint", "taint.cc");
    EXPECT_FALSE(anyMentions(vs, "summarizeAllowed"));
    EXPECT_GE(r.suppressions_used, 1u);
}

// ------------------------------------------------- suppression hygiene

TEST(SuppressionHygiene, ReasonlessAndUnknownRuleAllowsAreFlagged)
{
    const Result r = runAll();
    const auto vs = inFile(r, "suppression", "sloppy.cc");
    ASSERT_EQ(vs.size(), 2u);
    EXPECT_TRUE(anyMentions(vs, "without a reason"));
    EXPECT_TRUE(anyMentions(vs, "unknown rule"));
}

// ------------------------------------------------------- output formats

TEST(AnalyzeOutput, JsonCarriesSchemaRuleCountsAndIrSizes)
{
    const Result r = runAll();
    std::ostringstream os;
    writeJson(os, r, fixturesRoot());
    const std::string js = os.str();
    EXPECT_NE(js.find("\"schema\": \"fleetio-analyze-v1\""),
              std::string::npos);
    EXPECT_NE(js.find("\"rule_counts\""), std::string::npos);
    EXPECT_NE(js.find("\"ir\""), std::string::npos);
    EXPECT_NE(js.find("\"functions\""), std::string::npos);
}

TEST(AnalyzeOutput, HumanSummaryMirrorsLintFormat)
{
    const Result r = runAll();
    std::ostringstream os;
    writeHuman(os, r);
    EXPECT_NE(os.str().find("fleetio-analyze: FAILED"),
              std::string::npos);
}

}  // namespace
}  // namespace fleetio::analyze
