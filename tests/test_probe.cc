/**
 * @file
 * obs::Probe fan-out: one instrumentation event reaches every installed
 * consumer (trace, attribution, metrics) with the same counts, the gSB
 * trace-event → harvest-note mapping holds, and no consumer perturbs
 * the simulation.
 */
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "src/harness/experiment.h"
#include "src/harness/testbed.h"
#include "src/obs/json_reader.h"
#include "src/obs/probe.h"
#include "src/virt/channel_allocator.h"

namespace fleetio {
namespace {

TestbedOptions
allConsumersOn()
{
    TestbedOptions opts;
    opts.geo = testGeometry();
    opts.window = msec(50);
    opts.obs.trace = true;
    opts.obs.attribution = true;
    opts.obs.metrics = true;
    // Large enough that no event of the short run is overwritten.
    opts.obs.trace_capacity = std::size_t(1) << 18;
    return opts;
}

/** Two tenants on split channels; no beginMeasurement, so no consumer
 *  drops its warm-up counts and all of them see the whole run. */
void
addTwoTenants(Testbed &tb)
{
    const auto &geo = tb.device().geometry();
    const auto split = ChannelAllocator::equalSplit(geo, 2);
    const std::uint64_t quota = geo.totalBlocks() / 2;
    tb.addTenant(WorkloadKind::kVdiWeb, split[0], quota, msec(10));
    tb.addTenant(WorkloadKind::kTeraSort, split[1], quota, msec(10));
    tb.warmupFill();
    tb.startWorkloads();
}

obs::JsonValue
parse(const std::string &text)
{
    obs::JsonValue v;
    std::string err;
    EXPECT_TRUE(obs::parseJson(text, v, err)) << err;
    return v;
}

obs::JsonValue
traceJson(Testbed &tb)
{
    std::ostringstream os;
    tb.tracer()->writeChromeJson(os);
    return parse(os.str());
}

obs::JsonValue
attributionJson(Testbed &tb)
{
    std::ostringstream os;
    tb.attribution()->writeJson(os, nullptr);
    return parse(os.str());
}

TEST(ProbeFanOut, CompletionCountsAgreeAcrossConsumers)
{
    Testbed tb(allConsumersOn());
    addTwoTenants(tb);
    tb.run(msec(300));
    tb.stopWorkloads();
    ASSERT_EQ(tb.tracer()->droppedCount(), 0u);

    // Trace: one async-end ("e") event per completed request, on the
    // tenant's track.
    const obs::JsonValue trace = traceJson(tb);
    std::map<int, std::uint64_t> trace_done;
    for (const obs::JsonValue &ev : trace.at("traceEvents").items) {
        if (ev.str("ph") == "e")
            ++trace_done[int(ev.num("tid")) - 1];
    }
    const obs::JsonValue attr = attributionJson(tb);
    std::map<int, std::uint64_t> attr_done;
    for (const obs::JsonValue &t : attr.at("tenants").items)
        attr_done[int(t.num("id"))] = std::uint64_t(t.num("requests"));

    for (auto *v : tb.vssds().active()) {
        const int id = int(v->id());
        const std::uint64_t completed =
            v->latency().totalCount() + v->latency().windowCount();
        EXPECT_GT(completed, 0u) << "tenant " << id;
        EXPECT_EQ(trace_done[id], completed) << "tenant " << id;
        EXPECT_EQ(attr_done[id], completed) << "tenant " << id;
        EXPECT_EQ(tb.metrics()->counterSinceBaseline(
                      "t" + std::to_string(id) + ".requests"),
                  completed)
            << "tenant " << id;
    }
}

TEST(ProbeFanOut, GsbTraceEventsMatchHarvestNotes)
{
    Testbed tb(allConsumersOn());
    addTwoTenants(tb);
    tb.run(msec(50));
    // Donate, harvest, write into the harvested capacity, then pull it
    // back: create, harvest, force-release and reclaim all fire.
    const double bw = 2 * tb.device().geometry().channelBandwidthMBps();
    tb.gsb().makeHarvestable(0, bw);
    ASSERT_GT(tb.gsb().harvest(1, bw), 0u);
    tb.run(msec(100));
    EXPECT_GT(tb.gsb().forceReleaseHeld(1), 0u);
    tb.run(msec(100));
    tb.gsb().makeHarvestable(0, 0.0);
    tb.run(msec(50));
    tb.stopWorkloads();
    ASSERT_EQ(tb.tracer()->droppedCount(), 0u);

    const std::map<std::string, obs::TraceEventType> kGsbNames = {
        {"gsb_create", obs::TraceEventType::kGsbCreate},
        {"gsb_harvest", obs::TraceEventType::kGsbHarvest},
        {"gsb_reclaim", obs::TraceEventType::kGsbReclaim},
        {"gsb_revoke", obs::TraceEventType::kGsbRevoke},
        {"gsb_force_release", obs::TraceEventType::kGsbForceRelease},
        {"gsb_destroy", obs::TraceEventType::kGsbDestroy},
    };
    // Trace events per (tenant, note) under the probe's mapping.
    std::map<std::pair<int, int>, std::uint64_t> expected;
    std::uint64_t gsb_events = 0;
    const obs::JsonValue trace = traceJson(tb);
    for (const obs::JsonValue &ev : trace.at("traceEvents").items) {
        const auto it = kGsbNames.find(ev.str("name"));
        if (it == kGsbNames.end())
            continue;
        ++gsb_events;
        obs::HarvestNote note;
        if (obs::harvestNoteFor(it->second, note))
            ++expected[{int(ev.num("tid")) - 1, int(note)}];
    }
    EXPECT_GT(gsb_events, 0u);

    const obs::AttributionHub &hub = *tb.attribution();
    std::uint64_t notes = 0;
    for (auto *v : tb.vssds().active()) {
        for (int n = 0; n < int(obs::kNumHarvestNotes); ++n) {
            const std::uint64_t got =
                hub.harvestNotes(v->id(), obs::HarvestNote(n));
            EXPECT_EQ(got, (expected[{int(v->id()), n}]))
                << "tenant " << int(v->id()) << " note " << n;
            notes += got;
        }
    }
    for (obs::HarvestNote n :
         {obs::HarvestNote::kCreated, obs::HarvestNote::kReclaim,
          obs::HarvestNote::kRevoked}) {
        EXPECT_GT(hub.harvestNotes(0, n) + hub.harvestNotes(1, n), 0u)
            << "note " << int(n) << " never exercised";
    }
    EXPECT_GT(notes, 0u);
}

TEST(ProbeFanOut, HarvestNoteMappingCoversEveryGsbEvent)
{
    obs::HarvestNote n;
    ASSERT_TRUE(obs::harvestNoteFor(obs::TraceEventType::kGsbHarvest, n));
    EXPECT_EQ(n, obs::HarvestNote::kCreated);
    ASSERT_TRUE(obs::harvestNoteFor(obs::TraceEventType::kGsbReclaim, n));
    EXPECT_EQ(n, obs::HarvestNote::kReclaim);
    ASSERT_TRUE(obs::harvestNoteFor(obs::TraceEventType::kGsbRevoke, n));
    EXPECT_EQ(n, obs::HarvestNote::kRevoked);
    ASSERT_TRUE(
        obs::harvestNoteFor(obs::TraceEventType::kGsbForceRelease, n));
    EXPECT_EQ(n, obs::HarvestNote::kRevoked);
    EXPECT_FALSE(obs::harvestNoteFor(obs::TraceEventType::kGsbCreate, n));
    EXPECT_FALSE(obs::harvestNoteFor(obs::TraceEventType::kGsbDestroy, n));
    EXPECT_FALSE(obs::harvestNoteFor(obs::TraceEventType::kIoComplete, n));
}

void
expectSameResult(const ExperimentResult &x, const ExperimentResult &y)
{
    EXPECT_EQ(x.sim_events, y.sim_events);
    EXPECT_EQ(x.avg_util, y.avg_util);
    EXPECT_EQ(x.p95_util, y.p95_util);
    EXPECT_EQ(x.write_amp, y.write_amp);
    EXPECT_EQ(x.gsb_revokes, y.gsb_revokes);
    EXPECT_EQ(x.agent_trips, y.agent_trips);
    ASSERT_EQ(x.tenants.size(), y.tenants.size());
    for (std::size_t i = 0; i < x.tenants.size(); ++i) {
        const TenantResult &a = x.tenants[i];
        const TenantResult &b = y.tenants[i];
        EXPECT_EQ(a.avg_bw_mbps, b.avg_bw_mbps) << "tenant " << i;
        EXPECT_EQ(a.iops, b.iops) << "tenant " << i;
        EXPECT_EQ(a.p50, b.p50) << "tenant " << i;
        EXPECT_EQ(a.p99, b.p99) << "tenant " << i;
        EXPECT_EQ(a.p999, b.p999) << "tenant " << i;
        EXPECT_EQ(a.requests, b.requests) << "tenant " << i;
        EXPECT_EQ(a.slo_violation, b.slo_violation) << "tenant " << i;
    }
}

TEST(ProbeFanOut, EachConsumerAloneMatchesTheUnobservedRun)
{
    ExperimentSpec spec;
    spec.workloads = {WorkloadKind::kVdiWeb, WorkloadKind::kTeraSort};
    spec.policy = PolicyKind::kFleetIo;
    spec.opts.geo = testGeometry();
    spec.opts.window = msec(50);
    spec.warm_run = msec(200);
    spec.measure = msec(500);
    const ExperimentResult off = runExperiment(spec);
    EXPECT_GT(off.sim_events, 0u);

    for (int consumer = 0; consumer < 3; ++consumer) {
        SCOPED_TRACE(consumer == 0   ? "trace"
                     : consumer == 1 ? "attribution"
                                     : "metrics");
        ExperimentSpec one = spec;
        one.opts.obs.trace = consumer == 0;
        one.opts.obs.attribution = consumer == 1;
        one.opts.obs.metrics = consumer == 2;
        expectSameResult(runExperiment(one), off);
    }
}

}  // namespace
}  // namespace fleetio
