/**
 * @file
 * Elastic-tenancy chaos matrix: tenant churn (hot vSSD add/remove with
 * admission control and G-state degradation, DESIGN.md §11) crossed
 * with injected NAND faults and bursty arrival storms. Each cell runs
 * the full FleetIO stack; the matrix verdicts are
 *
 *   no-wedge    — every requested removal drains, scrubs, and returns
 *                 its channels; no vSSD sticks at zero free quota,
 *   integrity   — surviving tenants' LPA maps are intact even when
 *                 removals race program/erase faults,
 *   admission   — queued arrivals respect the bounded retry budget,
 *   SLO tiers   — graceful degradation engages under pressure and
 *                 never recovers more levels than it stepped down,
 *   utilization — churn keeps the device above a floor fraction of the
 *                 static baseline's utilization,
 *   determinism — an identical churn cell reruns bit-identically.
 *
 * --smoke shrinks training/measurement for the ctest registration.
 */
#include <cstring>

#include "bench/bench_common.h"
#include "src/policies/fleetio_policy.h"
#include "src/virt/channel_allocator.h"

using namespace fleetio;
using namespace fleetio::bench;

namespace {

struct Shape
{
    int train_windows = 600;
    SimTime warm = sec(2);
    SimTime measure = sec(18);
};

struct Cell
{
    std::string label;
    bool churn = false;        ///< false = static baseline
    bool burst = false;        ///< arrival storm instead of spaced churn
    bool aggressive_tiers = false;  ///< tight degradation thresholds
    FaultConfig faults{};
};

struct Outcome
{
    double util = 0;
    double agg_bw = 0;
    double slo_vio = 0;
    ChurnStats churn{};
    int max_retries_allowed = 0;
    int end_level = 0;
    std::size_t end_queued = 0;
    bool mappings_intact = true;
    bool no_wedged_vssd = true;
    bool removed_quiesced = true;
};

/** Walk every surviving tenant's map: each mapped LPA must resolve to
 *  a valid, non-retired page whose reverse map points straight back. */
bool
verifyMappings(Testbed &tb)
{
    const auto &geo = tb.device().geometry();
    for (auto *v : tb.vssds().active()) {
        Ftl &ftl = v->ftl();
        for (Lpa lpa = 0; lpa < ftl.logicalPages(); ++lpa) {
            const Ppa ppa = ftl.lookup(lpa);
            if (ppa == kNoPpa)
                continue;
            const FlashBlock &blk = tb.device().blockOf(ppa);
            if (blk.state == BlockState::kRetired)
                return false;
            if (!blk.valid[geo.pageOf(ppa)])
                return false;
            const RmapEntry &r = tb.device().rmap(ppa);
            if (r.data_vssd != v->id() || r.lpa != lpa)
                return false;
        }
    }
    return true;
}

ChurnEvent
arrival(SimTime at, WorkloadKind kind, std::uint32_t channels,
        const SsdGeometry &geo, SimTime slo)
{
    ChurnEvent ev;
    ev.at = at;
    ev.kind = ChurnEvent::Kind::kArrive;
    ev.workload = kind;
    ev.channels = channels;
    ev.quota_blocks = ChannelAllocator::quotaForChannels(geo, channels);
    ev.declared_mbps = geo.channelBandwidthMBps() * channels;
    ev.slo = slo;
    return ev;
}

ChurnEvent
removal(SimTime at, VssdId id)
{
    ChurnEvent ev;
    ev.at = at;
    ev.kind = ChurnEvent::Kind::kRemove;
    ev.remove_id = id;
    return ev;
}

Outcome
run(const Cell &cell, const Shape &shape)
{
    ExperimentSpec spec = makeSpec(
        {WorkloadKind::kVdiWeb, WorkloadKind::kTeraSort},
        PolicyKind::kFleetIo);
    spec.opts.faults = cell.faults;
    spec.warm_run = shape.warm;
    spec.measure = shape.measure;
    const auto &geo = spec.opts.geo;

    std::vector<SimTime> slos;
    for (WorkloadKind k : spec.workloads)
        slos.push_back(calibratedSlo(k, spec.workloads.size(),
                                     spec.opts));
    const SimTime arrive_slo =
        calibratedSlo(WorkloadKind::kYcsbB, spec.workloads.size(),
                      spec.opts);

    if (cell.churn) {
        // The device starts fully carved (2 x 8 channels), so every
        // arrival must wait for a removal's drain-then-scrub to return
        // channels — that is what exercises the backoff path.
        auto &sched = spec.opts.churn.schedule;
        if (cell.burst) {
            // Storm: one departure, then four near-simultaneous
            // arrivals racing for its 8 channels. Kinds alternate so
            // the winners include a bandwidth-intensive tenant and
            // device utilization survives the hog's departure.
            sched.push_back(removal(msec(200), VssdId(1)));
            for (int i = 0; i < 4; ++i) {
                const WorkloadKind k = i % 2 == 0
                                           ? WorkloadKind::kMlPrep
                                           : WorkloadKind::kYcsbB;
                sched.push_back(arrival(msec(300 + 10 * i), k, 4, geo,
                                        arrive_slo));
            }
        } else {
            // Spaced: departure, two arrivals, second departure.
            sched.push_back(removal(msec(200), VssdId(1)));
            sched.push_back(arrival(msec(400), WorkloadKind::kMlPrep, 4,
                                    geo, arrive_slo));
            sched.push_back(arrival(sec(2), WorkloadKind::kYcsbB, 4,
                                    geo, arrive_slo));
        }
        auto &el = spec.opts.churn.elastic;
        el.pressure_interval = spec.opts.window;
        // Retries must fully resolve (admit or reject) within the
        // measured region: 8 attempts at 100 ms doubling capped at
        // 800 ms span ~4.7 s, inside even the smoke measurement.
        el.admission.backoff_base = msec(100);
        el.admission.backoff_cap = msec(800);
        el.admission.max_retries = 8;
        if (cell.aggressive_tiers) {
            el.degrade_slo_1 = 0.01;
            el.degrade_slo_2 = 0.05;
            el.degrade_slo_3 = 0.20;
            el.recover_evals = 5;
        }
    }

    Testbed tb(spec.opts);
    FleetIoPolicy::Variant var;
    var.train_windows = shape.train_windows;
    FleetIoPolicy policy(var);
    policy.setup(tb, spec.workloads, slos);
    tb.warmupFill();
    tb.startWorkloads();
    tb.run(spec.warm_run);
    policy.prepare(tb);
    policy.beforeMeasure(tb);
    tb.beginMeasurement();
    tb.startChurn();
    tb.run(spec.measure);
    tb.endMeasurement();

    Outcome out;
    out.util = tb.avgUtilization();
    for (auto *v : tb.vssds().active()) {
        out.agg_bw += v->bandwidth().totalMBps(spec.measure);
        out.slo_vio += v->latency().sloViolation();
    }
    if (!tb.vssds().active().empty())
        out.slo_vio /= double(tb.vssds().active().size());

    out.mappings_intact = verifyMappings(tb);
    for (auto *v : tb.vssds().active()) {
        if (v->ftl().freeQuotaRatio() <= 0.0 && v->ftl().needsGc() &&
            !v->gc().active()) {
            out.no_wedged_vssd = false;
        }
    }
    if (ElasticTenancyManager *el = tb.elastic()) {
        out.churn = el->stats();
        out.max_retries_allowed =
            el->config().admission.max_retries;
        out.end_level = el->pressureLevel();
        out.end_queued = el->queuedArrivals();
        // Every removed tenant must be fully quiesced: no request of
        // its in flight anywhere in the scheduler.
        for (VssdId id = 0; id < VssdId(tb.vssds().size()); ++id) {
            if (!tb.vssds().alive(id) &&
                !tb.scheduler().tenantQuiesced(id)) {
                out.removed_quiesced = false;
            }
        }
    }
    return out;
}

bool
sameOutcome(const Outcome &a, const Outcome &b)
{
    return a.util == b.util && a.agg_bw == b.agg_bw &&
           a.slo_vio == b.slo_vio &&
           a.churn.arrivals == b.churn.arrivals &&
           a.churn.admitted == b.churn.admitted &&
           a.churn.retries == b.churn.retries &&
           a.churn.rejected == b.churn.rejected &&
           a.churn.removals_completed == b.churn.removals_completed &&
           a.churn.tier_stepdowns == b.churn.tier_stepdowns &&
           a.churn.tier_recoveries == b.churn.tier_recoveries;
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

    banner("Tenant churn: hot add/remove + admission control + G-state "
           "degradation under faults");
    BenchReport report("tenant_churn");
    report.setJobs(benchJobs());

    Shape shape;
    if (smoke) {
        shape.train_windows = 80;
        shape.warm = sec(1);
        shape.measure = sec(6);
    } else {
        shape.measure = measureDuration();
    }

    FaultConfig med;
    med.read_retry_prob = 1e-2;
    med.program_fail_prob = 1e-3;
    med.erase_fail_prob = 1e-2;
    med.chip_slowdown_prob = 1e-3;
    med.wear_error_growth = 1e-5;

    std::vector<Cell> cells;
    cells.push_back({"static", false, false, false, {}});
    cells.push_back({"churn", true, false, false, {}});
    cells.push_back({"churn+faults", true, false, false, med});
    cells.push_back({"storm+tiers", true, true, true, {}});
    cells.push_back({"storm+tiers+faults", true, true, true, med});

    auto outs = parallelMap(
        cells, [&shape](const Cell &c) { return run(c, shape); });

    // Determinism arm: the same churn cell a second time.
    const Outcome rerun = run(cells[1], shape);
    const bool deterministic = sameOutcome(outs[1], rerun);

    Table t({"cell", "util", "BW (MB/s)", "SLO vio", "admit",
             "retry", "reject", "removed", "stepdn", "recov"});
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Outcome &o = outs[i];
        t.addRow({cells[i].label, fmtPercent(o.util),
                  fmtDouble(o.agg_bw, 1), fmtPercent(o.slo_vio),
                  std::to_string(o.churn.admitted),
                  std::to_string(o.churn.retries),
                  std::to_string(o.churn.rejected),
                  std::to_string(o.churn.removals_completed) + "/" +
                      std::to_string(o.churn.removals_requested),
                  std::to_string(o.churn.tier_stepdowns),
                  std::to_string(o.churn.tier_recoveries)});
    }
    t.print(std::cout);
    std::cout << '\n';

    const double base_util = outs[0].util;
    bool ok = true;
    auto verdict = [&ok](bool pass, const std::string &what) {
        std::cout << (pass ? "PASS: " : "FAIL: ") << what << '\n';
        ok = ok && pass;
    };

    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Outcome &o = outs[i];
        const std::string &l = cells[i].label;
        verdict(o.mappings_intact, l + ": LPA mappings intact");
        verdict(o.no_wedged_vssd, l + ": no vSSD wedged");
        if (!cells[i].churn)
            continue;
        verdict(o.churn.removals_completed == o.churn.removals_requested,
                l + ": all removals drained, scrubbed, reclaimed");
        verdict(o.removed_quiesced,
                l + ": removed tenants fully quiesced");
        verdict(o.churn.admitted >= 1,
                l + ": at least one arrival admitted");
        verdict(o.churn.max_attempts_observed <= o.max_retries_allowed,
                l + ": retry attempts within the bounded budget");
        verdict(o.end_queued == 0,
                l + ": no arrival left stranded in the retry queue");
        verdict(o.churn.tier_recoveries <= o.churn.tier_stepdowns &&
                    o.end_level >= 0 && o.end_level <= 3,
                l + ": G-state ladder consistent");
        verdict(o.util >= 0.2 * base_util,
                l + ": utilization above the churn floor");
    }
    // Degradation engagement: the aggressive-threshold storm cells sit
    // at a 1 % mean-violation trigger; a burst of cold arrivals on top
    // of a draining departure must push past it.
    verdict(outs[3].churn.tier_stepdowns >= 1,
            "storm+tiers: SLO-tier degradation engaged");
    verdict(deterministic, "identical churn cell reruns bit-identically");

    std::cout << "\nExpected shape: churn cells admit arrivals only "
                 "after departures free channels (retries > 0), "
                 "removals always complete, and storm cells engage the "
                 "G-state ladder while utilization stays above the "
                 "floor.\n";

    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Outcome &o = outs[i];
        report.addCell(cells[i].label,
                       {{"avg_util", o.util},
                        {"agg_bw_mbps", o.agg_bw},
                        {"slo_violation", o.slo_vio},
                        {"churn_admitted", double(o.churn.admitted)},
                        {"churn_retries", double(o.churn.retries)},
                        {"churn_rejected", double(o.churn.rejected)},
                        {"churn_removals",
                         double(o.churn.removals_completed)},
                        {"tier_stepdowns",
                         double(o.churn.tier_stepdowns)},
                        {"mappings_intact",
                         o.mappings_intact ? 1.0 : 0.0}});
    }
    report.setMetric("verdicts_ok", ok ? 1.0 : 0.0);
    report.writeIfEnabled(argc, argv);
    return ok ? 0 : 1;
}
