/**
 * @file End-to-end integration tests: the paper's headline behaviours
 * on a scaled-down device. These are the slowest tests in the suite
 * (a few seconds total).
 */
#include <gtest/gtest.h>

#include "src/harness/experiment.h"

namespace fleetio {
namespace {

/** Shared spec: one LS + one BI tenant, short but meaningful run. */
ExperimentSpec baseSpec(PolicyKind policy)
{
    ExperimentSpec spec;
    spec.workloads = {WorkloadKind::kVdiWeb, WorkloadKind::kTeraSort};
    spec.policy = policy;
    spec.opts.window = msec(100);
    spec.warm_run = sec(1);
    spec.measure = sec(12);
    return spec;
}

const ExperimentResult &
cachedRun(PolicyKind policy)
{
    static std::map<int, ExperimentResult> cache;
    auto it = cache.find(int(policy));
    if (it == cache.end())
        it = cache.emplace(int(policy), runExperiment(baseSpec(policy)))
                 .first;
    return it->second;
}

TEST(Integration, ExperimentProducesCompleteResults)
{
    const auto &res = cachedRun(PolicyKind::kHardwareIsolation);
    ASSERT_EQ(res.tenants.size(), 2u);
    for (const auto &t : res.tenants) {
        EXPECT_GT(t.requests, 100u);
        EXPECT_GT(t.avg_bw_mbps, 0.0);
        EXPECT_GT(t.p99, t.p50);
        EXPECT_GE(t.p999, t.p99);
        EXPECT_GT(t.slo, 0u);
    }
    EXPECT_GT(res.avg_util, 0.0);
    EXPECT_GE(res.p95_util, res.avg_util);
    EXPECT_GE(res.write_amp, 1.0);
}

TEST(Integration, SoftwareIsolationTradesLatencyForBandwidth)
{
    const auto &hw = cachedRun(PolicyKind::kHardwareIsolation);
    const auto &sw = cachedRun(PolicyKind::kSoftwareIsolation);
    // The paper's §2.2 premise: SW iso gives BI more bandwidth and the
    // device more utilization, at the cost of LS tail latency.
    EXPECT_GT(sw.meanBandwidthIntensiveBw(),
              hw.meanBandwidthIntensiveBw() * 1.1);
    EXPECT_GT(sw.avg_util, hw.avg_util);
    EXPECT_GT(sw.meanLatencySensitiveP99(),
              hw.meanLatencySensitiveP99() * 1.2);
}

TEST(Integration, FleetIoSitsInsideTheTradeoff)
{
    const auto &hw = cachedRun(PolicyKind::kHardwareIsolation);
    const auto &sw = cachedRun(PolicyKind::kSoftwareIsolation);
    const auto &fl = cachedRun(PolicyKind::kFleetIo);
    // The headline claim: better utilization than hardware isolation...
    EXPECT_GT(fl.avg_util, hw.avg_util * 1.02);
    // ...with far better tail latency than software isolation.
    EXPECT_LT(fl.meanLatencySensitiveP99(),
              sw.meanLatencySensitiveP99());
    // And the LS tenant keeps its SLO violations moderate.
    for (const auto &t : fl.tenants) {
        if (!t.bandwidth_intensive) {
            EXPECT_LT(t.slo_violation, 0.15);
        }
    }
}

TEST(Integration, FleetIoHarvestsDuringTheRun)
{
    // A direct check that gSBs flow under FleetIO: run the policy on a
    // testbed and inspect the manager counters.
    ExperimentSpec spec = baseSpec(PolicyKind::kFleetIo);
    Testbed tb(spec.opts);
    auto policy = makePolicy(spec.policy);
    std::vector<SimTime> slos{msec(2), msec(30)};
    policy->setup(tb, spec.workloads, slos);
    tb.warmupFill();
    tb.startWorkloads();
    tb.run(sec(1));
    policy->prepare(tb);
    EXPECT_GT(tb.gsb().createdCount(), 0u);
    EXPECT_GT(tb.gsb().harvestedCount(), 0u);
}

TEST(Integration, PerEventCallbacksStayInline)
{
    // Every per-page callback (workload arrival, zero-fill, pump
    // completion and its host-read event, GC read and program, erase)
    // must fit EventQueue::Callback inline: one that outgrew it would
    // box silently, one malloc per event.
    const std::uint64_t boxed_before = EventQueue::Callback::boxedCount();
    ExperimentSpec spec = baseSpec(PolicyKind::kFleetIo);
    Testbed tb(spec.opts);
    auto policy = makePolicy(spec.policy);
    std::vector<SimTime> slos{msec(2), msec(30)};
    policy->setup(tb, spec.workloads, slos);
    tb.warmupFill();
    tb.startWorkloads();
    tb.run(sec(1));
    policy->prepare(tb);
    // A read of a trimmed page is answered by the mapping table.
    Vssd &v = *tb.vssds().active().front();
    v.ftl().trim(0);
    IoRequestPtr req = tb.scheduler().requests().acquire();
    req->vssd = v.id();
    bool zero_filled = false;
    req->on_complete = [&zero_filled](const IoRequest &, SimTime) {
        zero_filled = true;
    };
    tb.scheduler().submit(req);
    tb.run(msec(1));
    EXPECT_TRUE(zero_filled);
    const FlashDevice &dev = tb.device();
    EXPECT_GT(dev.hostReads(), 0u);
    EXPECT_GT(dev.hostWrites(), 0u);
    EXPECT_GT(dev.gcReads(), 0u);
    EXPECT_GT(dev.gcWrites(), 0u);
    EXPECT_GT(dev.erases(), 0u);
    EXPECT_GT(tb.gsb().harvestedCount(), 0u);
    EXPECT_EQ(EventQueue::Callback::boxedCount(), boxed_before);
}

TEST(Integration, DeterministicForFixedSeed)
{
    ExperimentSpec spec = baseSpec(PolicyKind::kHardwareIsolation);
    spec.measure = sec(4);
    const auto a = runExperiment(spec);
    const auto b = runExperiment(spec);
    ASSERT_EQ(a.tenants.size(), b.tenants.size());
    for (std::size_t i = 0; i < a.tenants.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.tenants[i].avg_bw_mbps,
                         b.tenants[i].avg_bw_mbps);
        EXPECT_EQ(a.tenants[i].p99, b.tenants[i].p99);
    }
}

TEST(Integration, SeedChangesOutcomeSlightly)
{
    ExperimentSpec spec = baseSpec(PolicyKind::kHardwareIsolation);
    spec.measure = sec(4);
    const auto a = runExperiment(spec);
    spec.opts.seed = 77;
    const auto b = runExperiment(spec);
    // Different arrival randomness, same regime.
    EXPECT_NE(a.tenants[0].p99, b.tenants[0].p99);
    EXPECT_NEAR(a.tenants[0].avg_bw_mbps, b.tenants[0].avg_bw_mbps,
                a.tenants[0].avg_bw_mbps * 0.3);
}

TEST(Integration, CalibratedSloIsCachedAndPlausible)
{
    ExperimentSpec spec = baseSpec(PolicyKind::kHardwareIsolation);
    const SimTime s1 = calibratedSlo(WorkloadKind::kVdiWeb, 2,
                                     spec.opts);
    const SimTime s2 = calibratedSlo(WorkloadKind::kVdiWeb, 2,
                                     spec.opts);
    EXPECT_EQ(s1, s2);  // cache hit
    EXPECT_GT(s1, usec(100));
    EXPECT_LT(s1, msec(100));
}

TEST(Integration, ScalabilityToFourTenants)
{
    ExperimentSpec spec;
    spec.workloads = {WorkloadKind::kVdiWeb, WorkloadKind::kYcsbB,
                      WorkloadKind::kTeraSort,
                      WorkloadKind::kPageRank};
    spec.policy = PolicyKind::kFleetIo;
    spec.opts.window = msec(100);
    spec.warm_run = sec(1);
    spec.measure = sec(8);
    const auto res = runExperiment(spec);
    ASSERT_EQ(res.tenants.size(), 4u);
    for (const auto &t : res.tenants)
        EXPECT_GT(t.requests, 50u);
}

}  // namespace
}  // namespace fleetio
