/**
 * @file
 * Design-choice ablations called out in DESIGN.md §5 (beyond the
 * paper's own Fig. 15 reward ablation):
 *   - beta sweep for the multi-agent reward blend (paper default 0.6),
 *   - RL state stacking depth (1 vs the paper's 3 windows),
 *   - admission-control batching interval (paper default 50 ms).
 */
#include <memory>

#include "bench/bench_common.h"
#include "src/core/fleetio_controller.h"
#include "src/virt/channel_allocator.h"

using namespace fleetio;
using namespace fleetio::bench;

namespace {

struct Row
{
    double util = 0;
    double ls_p99 = 0;
    double bi_bw = 0;
};

/** FleetIO run with a fully custom FleetIoConfig. */
Row
runCustom(const std::vector<WorkloadKind> &workloads,
          FleetIoConfig cfg)
{
    ExperimentSpec spec = makeSpec(workloads, PolicyKind::kFleetIo);
    std::vector<SimTime> slos;
    for (WorkloadKind k : workloads)
        slos.push_back(calibratedSlo(k, workloads.size(), spec.opts));

    Testbed tb(spec.opts);
    const auto &geo = tb.device().geometry();
    const auto split =
        ChannelAllocator::equalSplit(geo, workloads.size());
    const auto quota = geo.totalBlocks() / workloads.size();
    for (std::size_t i = 0; i < workloads.size(); ++i)
        tb.addTenant(workloads[i], split[i], quota, slos[i]);

    cfg.decision_window = spec.opts.window;
    cfg.harvest_bw_levels.clear();
    cfg.harvestable_bw_levels.clear();
    for (int lvl = 0; lvl <= 8; lvl += 2) {
        cfg.harvest_bw_levels.push_back(geo.channelBandwidthMBps() *
                                        lvl);
        cfg.harvestable_bw_levels.push_back(
            geo.channelBandwidthMBps() * lvl);
    }
    FleetIoController ctrl(cfg, tb.eq(), tb.vssds(), tb.gsb());
    for (auto *v : tb.vssds().active())
        ctrl.addVssd(*v, alphaForKind(tb.tenantKind(v->id())));
    ctrl.start();

    tb.warmupFill();
    tb.startWorkloads();
    tb.run(spec.warm_run);
    tb.run(SimTime(600) * spec.opts.window);  // pre-training
    ctrl.setTraining(false);
    tb.beginMeasurement();
    tb.run(spec.measure);
    tb.endMeasurement();
    ctrl.stop();

    Row row;
    row.util = tb.avgUtilization();
    for (auto *v : tb.vssds().active()) {
        if (isBandwidthIntensive(tb.tenantKind(v->id())))
            row.bi_bw = v->bandwidth().totalMBps(spec.measure);
        else
            row.ls_p99 = double(v->latency().quantile(0.99));
    }
    return row;
}

FleetIoConfig
baseCfg()
{
    FleetIoConfig cfg;
    cfg.teacher_windows = 400;
    cfg.ppo.adam.lr = 3e-5;
    cfg.ppo.ent_coef = 0.002;
    return cfg;
}

}  // namespace

int
main(int argc, char **argv)
{
    banner("Design ablations: beta, state stacking, admission batch");
    BenchReport report("ablation_design");
    report.setJobs(benchJobs());

    const std::vector<WorkloadKind> pair = {WorkloadKind::kVdiWeb,
                                            WorkloadKind::kTeraSort};

    // Enumerate every ablation cell, then fan out through the pool.
    struct Cell
    {
        std::string what, setting;
        FleetIoConfig cfg;
    };
    std::vector<Cell> cells;
    for (double beta : {1.0, 0.6, 0.2}) {
        FleetIoConfig cfg = baseCfg();
        cfg.beta = beta;
        cells.push_back({"beta (Eq. 2)", fmtDouble(beta, 1), cfg});
    }
    for (int stack : {1, 3}) {
        FleetIoConfig cfg = baseCfg();
        cfg.state_stack = stack;
        cells.push_back(
            {"state stacking", std::to_string(stack) + " windows",
             cfg});
    }
    for (SimTime batch : {msec(10), msec(50), msec(200)}) {
        FleetIoConfig cfg = baseCfg();
        cfg.admission_batch = batch;
        cells.push_back({"admission batch",
                         fmtDouble(toMillis(batch), 0) + " ms", cfg});
    }
    const auto rows = parallelMap(cells, [&](const Cell &c) {
        return runCustom(pair, c.cfg);
    });

    Table t({"ablation", "setting", "avg util", "LS P99", "BI BW"});
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Row &r = rows[i];
        t.addRow({cells[i].what, cells[i].setting, fmtPercent(r.util),
                  fmtLatencyMs(SimTime(r.ls_p99)),
                  fmtDouble(r.bi_bw, 1) + " MB/s"});
        report.addCell(cells[i].what + " = " + cells[i].setting,
                       {{"avg_util", r.util},
                        {"ls_p99_ns", r.ls_p99},
                        {"bi_bw_mbps", r.bi_bw}});
    }
    t.print(std::cout);
    std::cout << "\nPaper defaults: beta 0.6, 3 stacked windows, 50 ms "
                 "admission batches.\n";
    report.writeIfEnabled(argc, argv);
    return 0;
}
