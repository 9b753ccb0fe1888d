/**
 * @file
 * Root-cause observability bench (DESIGN.md §13): proves the latency
 * attribution, SLO verdict, and drift pipelines are exact, correct,
 * and free when disabled.
 *
 * Verdicts:
 *  1. Exactness — every attributed request's stage sum equals its
 *     end-to-end latency exactly (sumMismatches == 0) on a contended,
 *     GC-active cell.
 *  2. Known culprit — a synthetic three-tenant cell where a heavy
 *     writer shares the victim's channels and an innocent tenant runs
 *     elsewhere: the blame matrix charges the victim's wait to the
 *     heavy writer, charges nothing to the innocent bystander, and
 *     the SLO verdict engine names the heavy writer as the culprit.
 *  3. Drift flag — a FleetIO run whose latency-sensitive workload is
 *     swapped mid-measurement (morphTo) must raise at least one agent
 *     drift flag (PSI vs the recorded baseline) after the swap.
 *  4. Parity — the same FleetIO experiment with attribution + drift on
 *     and off produces an identical ExperimentResult (the null-guarded
 *     macros must not perturb the simulation).
 *
 * --smoke shrinks durations for the ctest registration.
 */
#include <cstring>

#include "bench/bench_common.h"
#include "src/harness/testbed.h"
#include "src/obs/attribution.h"
#include "src/obs/drift.h"
#include "src/virt/channel_allocator.h"
#include "src/workloads/generators.h"

using namespace fleetio;
using namespace fleetio::bench;

namespace {

bool
verdict(bool cond, const std::string &what)
{
    std::cout << (cond ? "PASS: " : "FAIL: ") << what << "\n";
    return cond;
}

bool
sameResult(const ExperimentResult &x, const ExperimentResult &y)
{
    if (x.sim_events != y.sim_events || x.avg_util != y.avg_util ||
        x.p95_util != y.p95_util || x.write_amp != y.write_amp ||
        x.tenants.size() != y.tenants.size()) {
        return false;
    }
    for (std::size_t i = 0; i < x.tenants.size(); ++i) {
        if (x.tenants[i].avg_bw_mbps != y.tenants[i].avg_bw_mbps ||
            x.tenants[i].p50 != y.tenants[i].p50 ||
            x.tenants[i].p99 != y.tenants[i].p99 ||
            x.tenants[i].requests != y.tenants[i].requests ||
            x.tenants[i].slo_violation != y.tenants[i].slo_violation) {
            return false;
        }
    }
    return true;
}

/** Outcome of the synthetic known-culprit cell. */
struct CulpritDrive
{
    std::uint64_t requests = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t blame_heavy = 0;     ///< victim wait blamed on writer
    std::uint64_t blame_innocent = 0;  ///< must stay zero
    std::uint64_t neighbor_verdicts = 0;
    std::uint64_t neighbor_verdicts_right = 0;  ///< culprit == writer
    std::array<std::uint64_t, obs::kNumVerdictCauses> causes{};
    std::uint64_t sim_events = 0;
};

/**
 * Three tenants, driven directly (no policy): a latency-sensitive
 * victim with an intentionally unmeetable SLO, a heavy writer sharing
 * the victim's channels, and an innocent bystander on the other half
 * of the device. Every wait nanosecond the victim suffers is either
 * self-inflicted or the writer's fault; the innocent tenant never
 * touches the victim's channels.
 */
CulpritDrive
driveKnownCulprit(SimTime measure)
{
    TestbedOptions opts;
    opts.seed = 42;
    opts.obs.attribution = true;
    Testbed tb(opts);
    const auto &geo = tb.device().geometry();
    std::vector<ChannelId> shared, other;
    for (ChannelId ch = 0; ch < geo.num_channels; ++ch)
        (ch < geo.num_channels / 2 ? shared : other).push_back(ch);
    const std::uint64_t quota = geo.totalBlocks() / 4;

    // The victim's SLO sits below the device's raw read service time,
    // so every measured window violates and the verdict engine has to
    // explain each one.
    Vssd &victim =
        tb.addTenant(WorkloadKind::kVdiWeb, shared, quota, usec(50));
    Vssd &heavy =
        tb.addTenant(WorkloadKind::kTeraSort, shared, quota, kTimeNever);
    Vssd &innocent =
        tb.addTenant(WorkloadKind::kYcsbB, other, quota, kTimeNever);
    // Amplify only the writer so its programs dominate the shared
    // chips' occupancy ledgers, throttle the victim so its own
    // admission queue stays shallow, and dispatch LS reads with
    // priority (as every real policy does) — the victim's latency is
    // then almost entirely chip-wait inflicted by the writer's
    // in-flight programs, which is what the verdict engine must
    // conclude.
    tb.workload(heavy.id()).morphTo(
        profileFor(WorkloadKind::kTeraSort, 3.0));
    tb.workload(victim.id()).morphTo(
        profileFor(WorkloadKind::kVdiWeb, 0.1));
    tb.scheduler().usePriority(true);
    victim.setPriority(Priority::kHigh);
    heavy.setPriority(Priority::kLow);

    tb.warmupFill();
    tb.startWorkloads();
    tb.run(msec(200));
    tb.beginMeasurement();
    const std::uint64_t events_before = tb.eq().dispatched();
    tb.run(measure);
    tb.endMeasurement();
    tb.stopWorkloads();

    const obs::AttributionHub &hub = *tb.attribution();
    CulpritDrive out;
    out.requests = hub.requests();
    out.mismatches = hub.sumMismatches();
    out.blame_heavy = hub.blame(victim.id(), heavy.id());
    out.blame_innocent = hub.blame(victim.id(), innocent.id());
    for (const obs::SloVerdict &v : hub.verdicts()) {
        if (v.tenant != victim.id())
            continue;
        ++out.causes[std::size_t(v.cause)];
        if (v.cause != obs::VerdictCause::kNeighbor)
            continue;
        ++out.neighbor_verdicts;
        if (v.culprit == heavy.id())
            ++out.neighbor_verdicts_right;
    }
    out.sim_events = tb.eq().dispatched() - events_before;
    return out;
}

/** Outcome of the mid-run workload-swap drift cell. */
struct DriftDrive
{
    std::uint64_t scored = 0;
    std::uint64_t flagged_before = 0;
    std::uint64_t flagged_after = 0;
    double max_psi = 0.0;
    std::uint64_t sim_events = 0;
};

/**
 * Full FleetIO stack (agents, supervisor, GSB) with the drift monitor
 * on. Half-way through the measured region the latency-sensitive
 * tenant's workload is morphed into a high-intensity scan — the agent
 * reacts, its action distribution leaves the recorded baseline, and
 * the monitor must flag it.
 */
DriftDrive
driveDriftSwap(SimTime half_measure)
{
    TestbedOptions opts;
    opts.seed = 42;
    opts.window = msec(100);
    opts.obs.drift = true;
    Testbed tb(opts);
    auto policy = makePolicy(PolicyKind::kFleetIo);
    const std::vector<WorkloadKind> workloads{WorkloadKind::kVdiWeb,
                                              WorkloadKind::kTeraSort};
    const std::vector<SimTime> slos{msec(10), msec(10)};
    policy->setup(tb, workloads, slos);
    tb.warmupFill();
    tb.startWorkloads();
    tb.run(sec(1));
    policy->prepare(tb);
    policy->beforeMeasure(tb);
    tb.beginMeasurement();
    const std::uint64_t events_before = tb.eq().dispatched();

    tb.run(half_measure);
    DriftDrive out;
    out.flagged_before = tb.drift()->flaggedWindows();
    // The swap: the LS tenant turns into a 3x-intensity scan.
    tb.workload(0).morphTo(profileFor(WorkloadKind::kPageRank, 3.0));
    tb.run(half_measure);
    tb.endMeasurement();
    tb.stopWorkloads();

    out.flagged_after = tb.drift()->flaggedWindows();
    out.scored = tb.drift()->windowsScored();
    out.max_psi = tb.drift()->maxPsi();
    out.sim_events = tb.eq().dispatched() - events_before;
    return out;
}

}  // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
    }

    banner("SLO attribution: exactness, blame, verdicts, drift");
    BenchReport report("slo_attribution");
    report.setJobs(1);

    const SimTime culprit_measure = smoke ? sec(1) : sec(4);
    const SimTime drift_half = smoke ? sec(2) : sec(4);

    // 1/2. Exactness + known culprit on the synthetic contention cell.
    const CulpritDrive cd = driveKnownCulprit(culprit_measure);

    // 3. Drift flags the mid-run workload swap.
    const DriftDrive dd = driveDriftSwap(drift_half);

    // 4. Parity: full FleetIO experiment, attribution + drift on/off.
    ExperimentSpec spec = makeSpec(
        {WorkloadKind::kVdiWeb, WorkloadKind::kTeraSort},
        PolicyKind::kFleetIo);
    if (smoke) {
        spec.warm_run = sec(1);
        spec.measure = sec(2);
    }
    const ExperimentResult res_off = runExperiment(spec);
    ExperimentSpec attributed = spec;
    attributed.opts.obs.attribution = true;
    attributed.opts.obs.drift = true;
    const ExperimentResult res_on = runExperiment(attributed);

    Table t({"quantity", "value"});
    t.addRow({"attributed requests", std::to_string(cd.requests)});
    t.addRow({"stage-sum mismatches", std::to_string(cd.mismatches)});
    t.addRow({"victim wait blamed on writer (ms)",
              fmtDouble(double(cd.blame_heavy) / 1e6, 2)});
    t.addRow({"victim wait blamed on bystander (ms)",
              fmtDouble(double(cd.blame_innocent) / 1e6, 2)});
    t.addRow({"neighbor verdicts (naming writer)",
              std::to_string(cd.neighbor_verdicts) + " (" +
                  std::to_string(cd.neighbor_verdicts_right) + ")"});
    {
        std::string causes;
        for (std::size_t c = 0; c < obs::kNumVerdictCauses; ++c) {
            if (!causes.empty())
                causes += " ";
            causes += std::string(
                          obs::causeName(obs::VerdictCause(c))) +
                      "=" + std::to_string(cd.causes[c]);
        }
        t.addRow({"victim verdicts by cause", causes});
    }
    t.addRow({"drift windows scored", std::to_string(dd.scored)});
    t.addRow({"drift flags before/after swap",
              std::to_string(dd.flagged_before) + "/" +
                  std::to_string(dd.flagged_after)});
    t.addRow({"max PSI", fmtDouble(dd.max_psi, 3)});
    t.print(std::cout);
    std::cout << '\n';

    bool ok = true;
    ok &= verdict(cd.requests > 0 && cd.mismatches == 0,
                  "stage sum == end-to-end latency for every request");
    ok &= verdict(cd.blame_heavy > 0,
                  "victim wait is blamed on the co-located writer");
    ok &= verdict(cd.blame_innocent == 0,
                  "no blame leaks to the channel-isolated bystander");
    ok &= verdict(cd.neighbor_verdicts > 0 &&
                      cd.neighbor_verdicts_right == cd.neighbor_verdicts,
                  "every neighbor-interference verdict names the writer");
    ok &= verdict(dd.scored > 0 && dd.flagged_after > dd.flagged_before,
                  "drift monitor flags the mid-run workload swap");
    ok &= verdict(sameResult(res_off, res_on),
                  "attribution+drift on/off results are identical");
    ok &= verdict(res_on.attr_requests > 0 &&
                      res_on.attr_sum_mismatches == 0,
                  "attributed FleetIO run stays exact end to end");

    report.addCell("culprit",
                   {{"requests", double(cd.requests)},
                    {"mismatches", double(cd.mismatches)},
                    {"blame_heavy_ms", double(cd.blame_heavy) / 1e6},
                    {"neighbor_verdicts", double(cd.neighbor_verdicts)}},
                   cd.sim_events);
    report.addCell("drift",
                   {{"windows_scored", double(dd.scored)},
                    {"flags", double(dd.flagged_after)},
                    {"max_psi", dd.max_psi}},
                   dd.sim_events);
    report.addCell("fleetio/attr-on", res_on);
    report.setMetric("parity", sameResult(res_off, res_on) ? 1 : 0);
    report.setMetric("sum_mismatches", double(cd.mismatches));
    report.writeIfEnabled(argc, argv, std::cout);

    return ok ? 0 : 1;
}
