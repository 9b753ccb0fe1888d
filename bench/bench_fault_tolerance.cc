/**
 * @file
 * Fault-tolerance sweep: the FleetIO stack on an aging/faulty device.
 * Injected read retries, program/erase failures, and chip slow-down
 * windows degrade the device while GC retirement, FTL program-repair,
 * and donor-pressure gSB revokes absorb the damage. Each fault level is
 * reported normalized to the fault-free baseline, followed by two
 * integrity verdicts: no LPA mapping may be lost, and no vSSD may wedge
 * at zero free quota.
 */
#include "bench/bench_common.h"
#include "src/policies/fleetio_policy.h"

using namespace fleetio;
using namespace fleetio::bench;

namespace {

struct Level
{
    std::string label;
    FaultConfig cfg;
};

std::vector<Level>
faultLevels()
{
    std::vector<Level> levels(4);
    levels[0].label = "none";

    levels[1].label = "low";
    levels[1].cfg.read_retry_prob = 1e-3;
    levels[1].cfg.program_fail_prob = 1e-4;
    levels[1].cfg.erase_fail_prob = 1e-3;
    levels[1].cfg.chip_slowdown_prob = 1e-4;
    levels[1].cfg.wear_error_growth = 1e-6;

    levels[2].label = "medium";
    levels[2].cfg.read_retry_prob = 1e-2;
    levels[2].cfg.program_fail_prob = 1e-3;
    levels[2].cfg.erase_fail_prob = 1e-2;
    levels[2].cfg.chip_slowdown_prob = 1e-3;
    levels[2].cfg.wear_error_growth = 1e-5;

    levels[3].label = "high";
    levels[3].cfg.read_retry_prob = 5e-2;
    levels[3].cfg.program_fail_prob = 5e-3;
    levels[3].cfg.erase_fail_prob = 5e-2;
    levels[3].cfg.chip_slowdown_prob = 5e-3;
    levels[3].cfg.wear_error_growth = 1e-4;
    return levels;
}

struct Outcome
{
    double util = 0;
    double agg_bw = 0;
    double ls_p99 = 0;
    double slo_vio = 0;
    double write_amp = 1.0;
    FaultCounters faults{};
    std::uint64_t retired = 0;
    std::uint64_t repairs = 0;
    std::uint64_t revokes = 0;
    bool mappings_intact = true;
    bool no_wedged_vssd = true;
};

/** Walk every tenant's map: each mapped LPA must resolve to a valid,
 *  non-retired page whose reverse map points straight back. */
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

Outcome
run(const FaultConfig &faults)
{
    ExperimentSpec spec = makeSpec(
        {WorkloadKind::kVdiWeb, WorkloadKind::kTeraSort},
        PolicyKind::kFleetIo);
    spec.opts.faults = faults;
    std::vector<SimTime> slos;
    for (WorkloadKind k : spec.workloads)
        slos.push_back(calibratedSlo(k, spec.workloads.size(),
                                     spec.opts));

    Testbed tb(spec.opts);
    FleetIoPolicy policy;
    policy.setup(tb, spec.workloads, slos);
    tb.warmupFill();
    tb.startWorkloads();
    tb.run(spec.warm_run);
    policy.prepare(tb);
    policy.beforeMeasure(tb);
    tb.beginMeasurement();
    tb.run(spec.measure);
    tb.endMeasurement();

    Outcome out;
    out.util = tb.avgUtilization();
    out.write_amp = tb.device().writeAmplification();
    out.faults = tb.faultCounters();
    out.retired = tb.device().totalRetiredBlocks();
    out.revokes = tb.gsb().revokedCount();
    int ls = 0;
    for (auto *v : tb.vssds().active()) {
        out.agg_bw += v->bandwidth().totalMBps(spec.measure);
        out.repairs += v->ftl().programFailRepairs();
        out.slo_vio += v->latency().sloViolation();
        if (!isBandwidthIntensive(tb.tenantKind(v->id()))) {
            out.ls_p99 += double(v->latency().quantile(0.99));
            ++ls;
        }
    }
    out.slo_vio /= double(tb.vssds().active().size());
    if (ls > 0)
        out.ls_p99 /= ls;

    out.mappings_intact = verifyMappings(tb);
    for (auto *v : tb.vssds().active()) {
        // A wedged vSSD: zero free quota with GC unable to help. The
        // degradation machinery (retire + re-trigger + revoke) must
        // keep every tenant above the floor.
        if (v->ftl().freeQuotaRatio() <= 0.0 && v->ftl().needsGc() &&
            !v->gc().active()) {
            out.no_wedged_vssd = false;
        }
    }
    return out;
}

}  // namespace

int
main(int argc, char **argv)
{
    banner("Fault tolerance: FleetIO under injected NAND faults");
    BenchReport report("fault_tolerance");
    report.setJobs(benchJobs());

    const auto levels = faultLevels();
    const auto outs = parallelMap(
        levels, [](const Level &lvl) { return run(lvl.cfg); });

    const Outcome &base = outs[0];
    Table t({"faults", "util", "util/base", "BW (MB/s)", "BW/base",
             "LS P99", "P99/base", "SLO vio", "WA"});
    for (std::size_t i = 0; i < levels.size(); ++i) {
        const Outcome &o = outs[i];
        t.addRow({levels[i].label, fmtPercent(o.util),
                  fmtDouble(normalizeTo(o.util, base.util)),
                  fmtDouble(o.agg_bw, 1),
                  fmtDouble(normalizeTo(o.agg_bw, base.agg_bw)),
                  fmtLatencyMs(SimTime(o.ls_p99)),
                  fmtDouble(normalizeTo(o.ls_p99, base.ls_p99)),
                  fmtPercent(o.slo_vio), fmtDouble(o.write_amp)});
    }
    t.print(std::cout);

    std::cout << '\n';
    Table f({"faults", "rd-retries", "pgm-fail", "repaired",
             "erase-fail", "retired", "slowdowns", "revokes"});
    for (std::size_t i = 0; i < levels.size(); ++i) {
        const Outcome &o = outs[i];
        f.addRow({levels[i].label,
                  std::to_string(o.faults.read_retries),
                  std::to_string(o.faults.program_failures),
                  std::to_string(o.repairs),
                  std::to_string(o.faults.erase_failures),
                  std::to_string(o.retired),
                  std::to_string(o.faults.slowdown_windows),
                  std::to_string(o.revokes)});
    }
    f.print(std::cout);

    bool ok = true;
    for (std::size_t i = 0; i < levels.size(); ++i) {
        if (!outs[i].mappings_intact) {
            std::cout << "\nFAIL: lost LPA mappings at level '"
                      << levels[i].label << "'\n";
            ok = false;
        }
        if (!outs[i].no_wedged_vssd) {
            std::cout << "\nFAIL: vSSD wedged at zero free quota at "
                         "level '"
                      << levels[i].label << "'\n";
            ok = false;
        }
    }
    if (ok) {
        std::cout << "\nPASS: no lost mappings, no wedged vSSD at any "
                     "fault level.\n";
    }
    std::cout << "Expected shape: graceful degradation — util/BW dip "
                 "and P99 grows with the fault rate, while every run "
                 "completes with intact metadata.\n";
    for (std::size_t i = 0; i < levels.size(); ++i) {
        const Outcome &o = outs[i];
        report.addCell(levels[i].label,
                       {{"avg_util", o.util},
                        {"agg_bw_mbps", o.agg_bw},
                        {"ls_p99_ns", o.ls_p99},
                        {"slo_violation", o.slo_vio},
                        {"write_amp", o.write_amp},
                        {"blocks_retired", double(o.retired)},
                        {"mappings_intact",
                         o.mappings_intact ? 1.0 : 0.0}});
    }
    report.setMetric("integrity_ok", ok ? 1.0 : 0.0);
    report.writeIfEnabled(argc, argv);
    return ok ? 0 : 1;
}
