/**
 * @file
 * Agent-resilience sweep (DESIGN.md §8): the FleetIO stack with agents
 * deliberately broken mid-run — NaN weight corruption and divergent
 * reward spikes — under the supervision layer and as an unsupervised
 * control. Verdicts: the supervised run must trip, force-release the
 * quarantined agent's harvest leases within one decision window, keep
 * the victim tenant at (or above) its SoftwareIsolation-level
 * bandwidth, and leave the collocated tenant's SLO intact; the
 * unsupervised control must demonstrably violate at least one of those
 * — otherwise the watchdog is dead weight.
 *
 * --smoke shrinks training/measurement for the ctest registration.
 */
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "bench/bench_common.h"
#include "src/policies/fleetio_policy.h"

using namespace fleetio;
using namespace fleetio::bench;

namespace {

enum class Inject { kNone, kNaNWeights, kRewardSpike };

struct Arm
{
    std::string label;
    Inject inject = Inject::kNone;
    bool supervise = true;
};

struct Shape
{
    int train_windows = 600;
    SimTime warm = sec(2);
    SimTime measure = sec(10);
};

struct Outcome
{
    double victim_bw = 0;   ///< BI tenant carrying the broken agent
    double peer_vio = 0;    ///< collocated LS tenant's SLO violation
    double peer_bw = 0;
    double victim_vio = 0;
    std::uint32_t held_before = 0;  ///< staged lease, pre-injection
    std::uint32_t held_after = 0;   ///< one window post-injection
    bool healthy_at_end = true;
    SupervisionStats stats{};
    std::uint64_t sim_events = 0;
};

Outcome
run(const Arm &arm, const Shape &shape)
{
    ExperimentSpec spec = makeSpec(
        {WorkloadKind::kVdiWeb, WorkloadKind::kTeraSort},
        PolicyKind::kFleetIo);
    spec.warm_run = shape.warm;
    spec.measure = shape.measure;
    std::vector<SimTime> slos;
    for (WorkloadKind k : spec.workloads)
        slos.push_back(calibratedSlo(k, spec.workloads.size(),
                                     spec.opts));

    Testbed tb(spec.opts);
    FleetIoPolicy::Variant var;
    var.supervise = arm.supervise;
    var.train_windows = shape.train_windows;
    var.display_name =
        arm.supervise ? "FleetIO" : "FleetIO (unsupervised)";
    FleetIoPolicy policy(var);
    policy.setup(tb, spec.workloads, slos);
    tb.warmupFill();
    tb.startWorkloads();
    tb.run(spec.warm_run);
    policy.prepare(tb);
    policy.beforeMeasure(tb);
    tb.beginMeasurement();

    const SimTime window = tb.options().window;
    SimTime used = spec.measure / 4;
    tb.run(used);

    FleetIoController *ctl = policy.controller();
    const auto tenants = tb.vssds().active();
    const VssdId peer = tenants[0]->id();
    const VssdId victim = tenants[1]->id();

    Outcome out;
    if (arm.inject == Inject::kNaNWeights) {
        // Stage a real harvest lease so the quarantine's forced
        // release is observable, then poison the weights.
        const double lease_bw =
            tb.device().geometry().channelBandwidthMBps() * 4;
        tb.gsb().makeHarvestable(peer, lease_bw);
        tb.gsb().harvest(victim, lease_bw);
        out.held_before = tb.gsb().heldChannels(victim);
        auto &w = ctl->agent(victim)->policy().params().rawValues();
        for (std::size_t k = 0; k < w.size(); k += 37)
            w[k] = std::numeric_limits<double>::quiet_NaN();
        // One decision window (plus slack for the tick itself): the
        // watchdog must trip and release the lease within it.
        tb.run(window + window / 10);
        used += window + window / 10;
        out.held_after = tb.gsb().heldChannels(victim);
    } else if (arm.inject == Inject::kRewardSpike) {
        ctl->setRewardHook([victim](VssdId id, double r) {
            return id == victim ? 1e9 : r;
        });
        tb.run(3 * window);
        used += 3 * window;
        ctl->setRewardHook(nullptr);
    }
    if (used < spec.measure)
        tb.run(spec.measure - used);
    tb.endMeasurement();

    out.victim_bw = tenants[1]->bandwidth().totalMBps(spec.measure);
    out.peer_bw = tenants[0]->bandwidth().totalMBps(spec.measure);
    out.peer_vio = tenants[0]->latency().sloViolation();
    out.victim_vio = tenants[1]->latency().sloViolation();
    out.stats = ctl->supervisionStats();
    if (ctl->supervisor() != nullptr) {
        out.healthy_at_end =
            ctl->supervisor()->state(victim) ==
            AgentSupervisor::AgentState::kHealthy;
    }
    out.sim_events = tb.eq().dispatched();
    return out;
}

bool
verdict(bool cond, const std::string &what)
{
    std::cout << (cond ? "PASS: " : "FAIL: ") << what << "\n";
    return cond;
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

    banner("Agent resilience: supervised vs unsupervised agents under "
           "injected divergence");
    BenchReport report("agent_resilience");
    report.setJobs(benchJobs());

    Shape shape;
    if (smoke) {
        shape.train_windows = 80;
        shape.warm = sec(1);
        shape.measure = sec(4);
    } else {
        shape.measure = measureDuration();
    }

    const std::vector<Arm> arms = {
        {"fault-free", Inject::kNone, true},
        {"corrupt/supervised", Inject::kNaNWeights, true},
        {"corrupt/unsupervised", Inject::kNaNWeights, false},
        {"spike/supervised", Inject::kRewardSpike, true},
    };
    const auto outs = parallelMap(
        arms, [&shape](const Arm &a) { return run(a, shape); });

    // SoftwareIsolation baseline: the bandwidth floor a quarantined
    // tenant must never sink below.
    ExperimentSpec swiso = makeSpec(
        {WorkloadKind::kVdiWeb, WorkloadKind::kTeraSort},
        PolicyKind::kSoftwareIsolation);
    swiso.warm_run = shape.warm;
    swiso.measure = shape.measure;
    const ExperimentResult sw = runExperiment(swiso);
    const double sw_victim_bw = sw.tenants[1].avg_bw_mbps;

    Table t({"arm", "victim BW", "peer BW", "peer vio", "trips",
             "restores", "fallback", "leases", "held pre/post"});
    for (std::size_t i = 0; i < arms.size(); ++i) {
        const Outcome &o = outs[i];
        t.addRow({arms[i].label, fmtDouble(o.victim_bw, 1),
                  fmtDouble(o.peer_bw, 1), fmtPercent(o.peer_vio),
                  std::to_string(o.stats.trips),
                  std::to_string(o.stats.restores),
                  std::to_string(o.stats.fallback_windows),
                  std::to_string(o.stats.lease_releases),
                  std::to_string(o.held_before) + "/" +
                      std::to_string(o.held_after)});
    }
    t.addRow({"sw-isolation", fmtDouble(sw_victim_bw, 1),
              fmtDouble(sw.tenants[0].avg_bw_mbps, 1),
              fmtPercent(sw.tenants[0].slo_violation), "-", "-", "-",
              "-", "-"});
    t.print(std::cout);
    std::cout << '\n';

    const Outcome &ff = outs[0];
    const Outcome &cs = outs[1];
    const Outcome &cu = outs[2];
    const Outcome &rs = outs[3];

    bool ok = true;
    ok &= verdict(ff.stats.trips == 0,
                  "healthy supervised run never trips");
    ok &= verdict(cs.stats.trips >= 1,
                  "watchdog trips on NaN weight corruption");
    ok &= verdict(cs.held_before > 0,
                  "lease staging held channels before corruption");
    ok &= verdict(cs.held_after == 0 && cs.stats.lease_releases >= 1,
                  "quarantine force-releases leases within one window");
    ok &= verdict(cs.healthy_at_end,
                  "corrupted agent restored and back to healthy");
    // The deterministic-behaviour floor. In this scaled-down testbed
    // SoftwareIsolation lets the BI tenant burst across every channel,
    // so the binding floor is the lower of the SW-isolation level and
    // the fault-free FleetIO level (the paper's full-size device has
    // SW-isolation as the lower bar).
    const double bw_floor =
        0.9 * std::min(sw_victim_bw, ff.victim_bw);
    ok &= verdict(cs.victim_bw >= bw_floor,
                  "quarantined tenant BW stays at the deterministic "
                  "isolation floor");
    ok &= verdict(cs.peer_vio <= ff.peer_vio + 0.15,
                  "collocated tenant SLO intact under supervision");
    const bool control_violates =
        cu.victim_bw < bw_floor ||
        cu.peer_vio > ff.peer_vio + 0.15 || cu.held_after > 0;
    ok &= verdict(control_violates,
                  "unsupervised control demonstrably violates "
                  "(BW floor, peer SLO, or stuck leases)");
    ok &= verdict(cu.stats.trips == 0,
                  "control arm really ran without supervision");
    ok &= verdict(rs.stats.trips >= 1 && rs.healthy_at_end,
                  "reward spike trips the watchdog and recovers");
    ok &= verdict(rs.peer_vio <= ff.peer_vio + 0.15,
                  "reward spike leaves collocated SLO intact");

    std::cout << "\nExpected shape: only the injected arms trip; the "
                 "supervised arms degrade to deterministic isolation "
                 "and recover, the control does not.\n";

    for (std::size_t i = 0; i < arms.size(); ++i) {
        const Outcome &o = outs[i];
        report.addCell(arms[i].label,
                       {{"victim_bw_mbps", o.victim_bw},
                        {"peer_bw_mbps", o.peer_bw},
                        {"peer_slo_vio", o.peer_vio},
                        {"victim_slo_vio", o.victim_vio},
                        {"agent_trips", double(o.stats.trips)},
                        {"agent_restores", double(o.stats.restores)},
                        {"agent_fallback_windows",
                         double(o.stats.fallback_windows)},
                        {"agent_lease_releases",
                         double(o.stats.lease_releases)},
                        {"held_after", double(o.held_after)}},
                       o.sim_events);
    }
    report.addCell("sw-isolation", sw);
    report.setMetric("resilience_ok", ok ? 1.0 : 0.0);
    report.writeIfEnabled(argc, argv);
    return ok ? 0 : 1;
}
