/**
 * @file
 * Crash-recovery chaos matrix (DESIGN.md §12): scheduled power loss
 * (by sim-time or inside a GC / churn phase) crossed with injected
 * NAND faults, durable-metadata damage (torn checkpoint slot, torn
 * journal tail), and tenant churn. Each cell runs the full FleetIO
 * stack with RL agents checkpointing to disk; the matrix verdicts are
 *
 *   zero loss    — no acknowledged write disappears across the crash,
 *   exact rebuild— the recovered L2P map and HarvestedBlockTable are
 *                  identical to the pre-crash shadow model,
 *   integrity    — every surviving mapping resolves to a valid,
 *                  non-retired page whose reverse map points back,
 *   bounded RPO  — the checkpoint cadence bounds the recovery point
 *                  (2x when the current slot is deliberately torn),
 *   bounded RTO  — the analytic scan+replay rebuild cost stays under a
 *                  fixed ceiling and I/O resumes afterwards,
 *   agents       — RL agents reload their last on-disk snapshot,
 *   churn        — removals racing the crash still run to completion,
 *   determinism  — crashed and crash-free cells rerun bit-identically.
 *
 * --smoke shrinks training/measurement for the ctest registration.
 */
#include <cctype>
#include <cstring>
#include <filesystem>

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
    CrashPlan plan{};               ///< trigger disabled = no-crash arm
    bool churn = false;             ///< schedule a removal mid-measure
    bool corrupt_checkpoint = false;
    bool torn_journal = false;
    double warmup_fill = 0.0;       ///< 0 = testbed default
    double intensity = 0.0;         ///< 0 = testbed default
    FaultConfig faults{};
};

struct Outcome
{
    bool recovered = false;
    RecoveryReport report{};
    std::uint64_t dispatched = 0;
    std::vector<std::uint64_t> tenant_bytes;
    ChurnStats churn{};
    bool removed_quiesced = true;
    bool mappings_intact = true;
    double util = 0;
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
removal(SimTime at, VssdId id)
{
    ChurnEvent ev;
    ev.at = at;
    ev.kind = ChurnEvent::Kind::kRemove;
    ev.remove_id = id;
    return ev;
}

/** Per-cell scratch dir for the RL agents' on-disk CheckpointStores
 *  (cells run concurrently under parallelMap, so they must not share
 *  files; the determinism rerun wipes and reuses its cell's dir). */
std::string
checkpointDir(const std::string &label)
{
    std::string slug;
    for (char c : label)
        slug += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c
                                                                   : '_';
    const auto dir = std::filesystem::temp_directory_path() /
                     ("fleetio_bench_crash_" + slug);
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir, ec);
    return dir.string();
}

Outcome
run(const Cell &cell, const Shape &shape)
{
    ExperimentSpec spec = makeSpec(
        {WorkloadKind::kVdiWeb, WorkloadKind::kYcsbB},
        PolicyKind::kFleetIo);
    spec.opts.faults = cell.faults;
    spec.warm_run = shape.warm;
    spec.measure = shape.measure;
    if (cell.warmup_fill > 0.0)
        spec.opts.warmup_fill = cell.warmup_fill;
    if (cell.intensity > 0.0)
        spec.opts.intensity = cell.intensity;

    spec.opts.crash.plan = cell.plan;
    spec.opts.crash.corrupt_checkpoint = cell.corrupt_checkpoint;
    spec.opts.crash.torn_journal_tail = cell.torn_journal;
    if (cell.churn)
        spec.opts.churn.schedule.push_back(
            removal(msec(300), VssdId(1)));

    std::vector<SimTime> slos;
    for (WorkloadKind k : spec.workloads)
        slos.push_back(calibratedSlo(k, spec.workloads.size(),
                                     spec.opts));

    Testbed tb(spec.opts);
    FleetIoPolicy::Variant var;
    var.train_windows = shape.train_windows;
    FleetIoPolicy policy(var);
    policy.setup(tb, spec.workloads, slos);
    // Recovery reloads agents from their last on-disk snapshot; wire
    // the controller into the testbed and give it a store per agent.
    tb.setController(policy.controller());
    policy.controller()->setCheckpointDir(checkpointDir(cell.label),
                                          /*interval_windows=*/2);
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
    out.recovered = tb.recovered();
    out.report = tb.recoveryReport();
    out.dispatched = tb.eq().dispatched();
    out.util = tb.avgUtilization();
    for (auto *v : tb.vssds().active())
        out.tenant_bytes.push_back(v->bandwidth().totalBytes());
    out.mappings_intact = verifyMappings(tb);
    if (ElasticTenancyManager *el = tb.elastic()) {
        out.churn = el->stats();
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
    return a.recovered == b.recovered &&
           a.dispatched == b.dispatched &&
           a.tenant_bytes == b.tenant_bytes && a.util == b.util &&
           a.report.crash_time == b.report.crash_time &&
           a.report.rpo_ns == b.report.rpo_ns &&
           a.report.rto_ns == b.report.rto_ns &&
           a.report.scanned_pages == b.report.scanned_pages &&
           a.report.replayed_records == b.report.replayed_records &&
           a.report.restored_mappings == b.report.restored_mappings;
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

    banner("Crash-consistent recovery: power loss x NAND faults x "
           "metadata damage x tenant churn");
    BenchReport report("crash_recovery");
    report.setJobs(benchJobs());

    Shape shape;
    if (smoke) {
        shape.train_windows = 80;
        shape.warm = sec(1);
        shape.measure = sec(4);
    } else {
        shape.measure = measureDuration();
    }
    // Mid-measure power loss, absolute sim time (warmup included).
    const SimTime crash_at = shape.warm + shape.measure / 3;

    FaultConfig med;
    med.read_retry_prob = 1e-2;
    med.program_fail_prob = 1e-3;
    med.erase_fail_prob = 1e-2;
    med.chip_slowdown_prob = 1e-3;
    med.wear_error_growth = 1e-5;

    CrashPlan at_time;
    at_time.trigger = CrashPlan::Trigger::kSimTime;
    at_time.at = crash_at;

    CrashPlan in_gc;
    in_gc.trigger = CrashPlan::Trigger::kPhase;
    in_gc.phase = CrashPhase::kGcMigration;
    in_gc.phase_skip = 25;

    CrashPlan in_drain;
    in_drain.trigger = CrashPlan::Trigger::kPhase;
    in_drain.phase = CrashPhase::kChurnDrain;

    CrashPlan in_teardown;
    in_teardown.trigger = CrashPlan::Trigger::kPhase;
    in_teardown.phase = CrashPhase::kChurnTeardown;

    std::vector<Cell> cells;
    cells.push_back({"no-crash", {}, false, false, false, 0, 0, {}});
    cells.push_back({"crash", at_time, false, false, false, 0, 0, {}});
    cells.push_back(
        {"crash+faults", at_time, false, false, false, 0, 0, med});
    cells.push_back(
        {"crash@gc", in_gc, false, false, false, 0.92, 6.0, {}});
    cells.push_back(
        {"crash@drain+churn", in_drain, true, false, false, 0, 0, {}});
    cells.push_back({"crash@teardown+churn+faults", in_teardown, true,
                     false, false, 0, 0, med});
    cells.push_back(
        {"crash+torn-ckpt", at_time, false, true, false, 0, 0, {}});
    cells.push_back(
        {"crash+torn-journal", at_time, false, false, true, 0, 0, {}});

    auto outs = parallelMap(
        cells, [&shape](const Cell &c) { return run(c, shape); });

    // Determinism arms: the plain crash cell and the crash-free
    // baseline, each a second time. The latter pins the guarantee that
    // runs with no crash schedule behave identically build-to-build.
    const std::vector<Cell> rerun_cells{cells[1], cells[0]};
    auto reruns = parallelMap(rerun_cells, [&shape](const Cell &c) {
        return run(c, shape);
    });
    const bool crash_deterministic = sameOutcome(outs[1], reruns[0]);
    const bool clean_deterministic = sameOutcome(outs[0], reruns[1]);

    Table t({"cell", "recov", "RPO (ms)", "RTO (ms)", "restored",
             "scanned", "replay", "torn", "agents", "leases"});
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Outcome &o = outs[i];
        const RecoveryReport &r = o.report;
        t.addRow({cells[i].label, o.recovered ? "yes" : "-",
                  o.recovered ? fmtDouble(toMillis(r.rpo_ns), 1) : "-",
                  o.recovered ? fmtDouble(toMillis(r.rto_ns), 1) : "-",
                  std::to_string(r.restored_mappings),
                  std::to_string(r.scanned_pages),
                  std::to_string(r.replayed_records),
                  std::to_string(r.torn_records),
                  std::to_string(r.agents_restored),
                  std::to_string(r.leases_reconciled)});
    }
    t.print(std::cout);
    std::cout << '\n';

    bool ok = true;
    auto verdict = [&ok](bool pass, const std::string &what) {
        std::cout << (pass ? "PASS: " : "FAIL: ") << what << '\n';
        ok = ok && pass;
    };

    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Outcome &o = outs[i];
        const RecoveryReport &r = o.report;
        const std::string &l = cells[i].label;
        verdict(o.mappings_intact, l + ": end-state mappings intact");
        if (!cells[i].plan.enabled()) {
            verdict(!o.recovered && r.crash_time == 0,
                    l + ": no crash machinery engaged");
            continue;
        }
        verdict(o.recovered, l + ": power loss fired and recovered");
        if (!o.recovered)
            continue;
        verdict(r.acked_lost == 0,
                l + ": zero acknowledged writes lost");
        verdict(r.map_matches_shadow,
                l + ": rebuilt L2P map == pre-crash shadow");
        verdict(r.hbt_matches_shadow,
                l + ": rebuilt HBT == pre-crash shadow");
        verdict(r.restored_mappings > 0,
                l + ": scan restored mappings");
        // The device checkpoint cadence bounds the RPO; a torn current
        // slot falls back one cadence further.
        const std::uint64_t cadence = msec(50);
        verdict(r.rpo_ns <=
                    (cells[i].corrupt_checkpoint ? 2 * cadence
                                                 : cadence),
                l + ": RPO within the checkpoint cadence");
        verdict(r.rto_ns > 0 && r.rto_ns <= sec(2),
                l + ": RTO bounded");
        verdict(r.agents_restored > 0,
                l + ": RL agents reloaded from disk snapshots");
        bool progressed = !o.tenant_bytes.empty();
        for (std::uint64_t bytes : o.tenant_bytes)
            progressed = progressed && bytes > 0;
        verdict(progressed, l + ": tenants resumed I/O after recovery");
        if (cells[i].corrupt_checkpoint)
            verdict(r.checkpoint_fallback,
                    l + ": torn slot fell back to the previous "
                        "checkpoint");
        if (cells[i].churn) {
            verdict(o.churn.removals_completed ==
                        o.churn.removals_requested,
                    l + ": removal racing the crash ran to "
                        "completion");
            verdict(o.removed_quiesced,
                    l + ": removed tenants fully quiesced");
        }
    }
    verdict(crash_deterministic,
            "identical crashed cell reruns bit-identically");
    verdict(clean_deterministic,
            "crash-free baseline reruns bit-identically");

    std::cout << "\nExpected shape: every crashed cell rebuilds the "
                 "exact pre-crash map from checkpoint+journal+scan "
                 "with zero acked loss, RPO under the checkpoint "
                 "cadence, analytic RTO under the ceiling, and both "
                 "arms bit-identical on rerun.\n";

    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Outcome &o = outs[i];
        report.addCell(cells[i].label,
                       {{"recovered", o.recovered ? 1.0 : 0.0},
                        {"rpo_ms", toMillis(o.report.rpo_ns)},
                        {"rto_ms", toMillis(o.report.rto_ns)},
                        {"restored_mappings",
                         double(o.report.restored_mappings)},
                        {"scanned_pages",
                         double(o.report.scanned_pages)},
                        {"acked_lost", double(o.report.acked_lost)},
                        {"agents_restored",
                         double(o.report.agents_restored)},
                        {"leases_reconciled",
                         double(o.report.leases_reconciled)},
                        {"mappings_intact",
                         o.mappings_intact ? 1.0 : 0.0}});
    }
    report.setMetric("verdicts_ok", ok ? 1.0 : 0.0);
    report.writeIfEnabled(argc, argv);
    return ok ? 0 : 1;
}
