/**
 * @file
 * Figure 17 reproduction: robustness to a collocated-workload switch.
 * FleetIO-Transfer trains with one collocated workload and is then
 * measured after that workload morphs into a different one;
 * FleetIO-Pretrained trains directly on the final combination.
 * Paper: Transfer performs within 5 % of Pretrained — the agents do
 * not overfit to the specific collocated tenant.
 */
#include "bench/bench_common.h"
#include "src/policies/fleetio_policy.h"

using namespace fleetio;
using namespace fleetio::bench;

namespace {

struct Outcome
{
    double util = 0;
    double focus_bw = 0;   ///< bandwidth of the kept (focus) tenant
    double focus_p99 = 0;  ///< P99 of the kept (focus) tenant
};

/**
 * Run FleetIO with tenants {focus, trained_with}; after training,
 * morph the collocated tenant into @p evaluated_with and measure.
 * Pass trained_with == evaluated_with for the Pretrained arm.
 */
Outcome
run(WorkloadKind focus, WorkloadKind trained_with,
    WorkloadKind evaluated_with)
{
    ExperimentSpec spec =
        makeSpec({focus, trained_with}, PolicyKind::kFleetIo);
    // Calibrate the SLOs against the *evaluated* combination.
    std::vector<SimTime> slos{
        calibratedSlo(focus, 2, spec.opts),
        calibratedSlo(evaluated_with, 2, spec.opts)};

    Testbed tb(spec.opts);
    FleetIoPolicy policy;
    policy.setup(tb, spec.workloads, slos);
    tb.warmupFill();
    tb.startWorkloads();
    tb.run(spec.warm_run);
    policy.prepare(tb);  // pre-training with the original neighbour

    if (trained_with != evaluated_with)
        tb.workload(1).morphTo(profileFor(evaluated_with));

    policy.beforeMeasure(tb);
    tb.beginMeasurement();
    tb.run(spec.measure);
    tb.endMeasurement();

    Vssd *f = tb.vssds().get(0);
    Outcome out;
    out.util = tb.avgUtilization();
    out.focus_bw = f->bandwidth().totalMBps(spec.measure);
    out.focus_p99 = double(f->latency().quantile(0.99));
    return out;
}

}  // namespace

int
main(int argc, char **argv)
{
    banner("Figure 17: robustness to collocated-workload changes");
    BenchReport report("fig17_robustness");
    report.setJobs(benchJobs());

    using K = WorkloadKind;
    struct Case
    {
        K focus, trained, evaluated;
        bool focus_is_bi;
    };
    // T + (V -> Y) etc., as labelled in Fig. 17.
    const std::vector<Case> cases = {
        {K::kTeraSort, K::kVdiWeb, K::kYcsbB, true},
        {K::kMlPrep, K::kVdiWeb, K::kYcsbB, true},
        {K::kPageRank, K::kVdiWeb, K::kYcsbB, true},
        {K::kVdiWeb, K::kTeraSort, K::kMlPrep, false},
        {K::kVdiWeb, K::kMlPrep, K::kPageRank, false},
        {K::kYcsbB, K::kPageRank, K::kTeraSort, false},
    };

    // Both arms of every case are independent simulations: fan all 12
    // out through the pool, pretrained at 2i, transfer at 2i+1.
    struct Task
    {
        K focus, trained, evaluated;
    };
    std::vector<Task> tasks;
    for (const auto &c : cases) {
        tasks.push_back({c.focus, c.evaluated, c.evaluated});
        tasks.push_back({c.focus, c.trained, c.evaluated});
    }
    const auto outcomes = parallelMap(tasks, [](const Task &t) {
        return run(t.focus, t.trained, t.evaluated);
    });

    Table t({"case", "metric", "Pretrained", "Transfer",
             "Transfer/Pretrained"});
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const auto &c = cases[i];
        const Outcome &pre = outcomes[2 * i];
        const Outcome &xfer = outcomes[2 * i + 1];
        const std::string label =
            workloadName(c.focus) + " + (" + workloadName(c.trained) +
            " -> " + workloadName(c.evaluated) + ")";
        t.addRow({label, "util", fmtPercent(pre.util),
                  fmtPercent(xfer.util),
                  fmtDouble(normalizeTo(xfer.util, pre.util))});
        if (c.focus_is_bi) {
            t.addRow({label, "BW (MB/s)", fmtDouble(pre.focus_bw, 1),
                      fmtDouble(xfer.focus_bw, 1),
                      fmtDouble(normalizeTo(xfer.focus_bw,
                                            pre.focus_bw))});
        } else {
            t.addRow({label, "P99",
                      fmtLatencyMs(SimTime(pre.focus_p99)),
                      fmtLatencyMs(SimTime(xfer.focus_p99)),
                      fmtDouble(normalizeTo(xfer.focus_p99,
                                            pre.focus_p99))});
        }
        report.addCell(label + " [pretrained]",
                       {{"util", pre.util},
                        {"focus_bw_mbps", pre.focus_bw},
                        {"focus_p99_ns", pre.focus_p99}});
        report.addCell(label + " [transfer]",
                       {{"util", xfer.util},
                        {"focus_bw_mbps", xfer.focus_bw},
                        {"focus_p99_ns", xfer.focus_p99}});
    }
    t.print(std::cout);
    std::cout << "\nExpected shape: Transfer within a few percent of "
                 "Pretrained (paper: within 5%).\n";
    report.writeIfEnabled(argc, argv);
    return 0;
}
