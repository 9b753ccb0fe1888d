/**
 * @file
 * Figure 14 reproduction: scalability over the Table-5 mixes (2/4/8
 * vSSDs) — (a) average utilization, (b) LS P99 normalized to HW
 * isolation, (c) BI bandwidth normalized to HW isolation.
 * Paper: FleetIO keeps the P99 increase under ~10 % while improving
 * utilization 1.18-1.33x and BI bandwidth ~1.45x on average.
 */
#include "bench/bench_common.h"

using namespace fleetio;
using namespace fleetio::bench;

int
main(int argc, char **argv)
{
    banner("Figure 14: scalability over Table-5 mixes");
    BenchReport report("fig14_scalability");
    report.setJobs(benchJobs());

    const auto mixes = scalabilityMixes();
    const auto policies = mainPolicies();
    std::vector<ExperimentSpec> specs;
    for (const auto &mix : mixes) {
        for (PolicyKind pk : policies)
            specs.push_back(makeSpec(mix.workloads, pk));
    }
    const auto results = runExperiments(specs);

    Table a({"mix", "policy", "avg util", "util vs HW"});
    Table b({"mix", "policy", "mean LS P99", "vs HW"});
    Table c({"mix", "policy", "mean BI BW", "vs HW"});

    for (std::size_t i = 0; i < mixes.size(); ++i) {
        const auto &mix = mixes[i];
        // mainPolicies() leads with hardware isolation, the baseline.
        const auto &hw = results[i * policies.size()];
        for (std::size_t p = 0; p < policies.size(); ++p) {
            const auto &res = results[i * policies.size() + p];
            report.addCell(mix.label, res);
            a.addRow({mix.label, res.policy,
                      fmtPercent(res.avg_util),
                      fmtDouble(normalizeTo(res.avg_util,
                                            hw.avg_util)) + "x"});
            b.addRow({mix.label, res.policy,
                      fmtLatencyMs(
                          SimTime(res.meanLatencySensitiveP99())),
                      fmtDouble(normalizeTo(
                          res.meanLatencySensitiveP99(),
                          hw.meanLatencySensitiveP99())) + "x"});
            c.addRow({mix.label, res.policy,
                      fmtDouble(res.meanBandwidthIntensiveBw(), 1) +
                          " MB/s",
                      fmtDouble(normalizeTo(
                          res.meanBandwidthIntensiveBw(),
                          hw.meanBandwidthIntensiveBw())) + "x"});
        }
    }
    std::cout << "(a) average storage utilization\n";
    a.print(std::cout);
    std::cout << "\n(b) P99 of latency-sensitive workloads\n";
    b.print(std::cout);
    std::cout << "\n(c) bandwidth of bandwidth-intensive workloads\n";
    c.print(std::cout);
    report.writeIfEnabled(argc, argv);
    return 0;
}
