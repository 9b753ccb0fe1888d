/**
 * @file
 * Figure 16 reproduction: FleetIO over a mixed layout — two VDI-Web
 * tenants on 4-channel hardware-isolated vSSDs, two TeraSort tenants
 * sharing 8 software-isolated channels (mix3). Paper: FleetIO improves
 * utilization 1.27x and TeraSort bandwidth 1.42x over Mixed Isolation
 * while keeping the tail-latency increase to ~1.19x.
 */
#include "bench/bench_common.h"

using namespace fleetio;
using namespace fleetio::bench;

int
main(int argc, char **argv)
{
    banner("Figure 16: mixed hardware- and software-isolated vSSDs");
    BenchReport report("fig16_mixed_isolation");
    report.setJobs(benchJobs());

    const std::vector<WorkloadKind> mix3 = {
        WorkloadKind::kVdiWeb, WorkloadKind::kVdiWeb,
        WorkloadKind::kTeraSort, WorkloadKind::kTeraSort};
    const std::vector<PolicyKind> policies = {
        PolicyKind::kMixedIsolation, PolicyKind::kSoftwareIsolation,
        PolicyKind::kFleetIoMixed};

    std::vector<ExperimentSpec> specs;
    for (PolicyKind pk : policies)
        specs.push_back(makeSpec(mix3, pk));
    const auto results = runExperiments(specs);

    Table t({"policy", "avg util", "VDI-Web P99 (mean)",
             "TeraSort BW (mean)"});
    const auto &base = results[0];  // Mixed Isolation leads
    for (std::size_t p = 0; p < policies.size(); ++p) {
        const PolicyKind pk = policies[p];
        const auto &res = results[p];
        report.addCell("mix3", res);
        t.addRow({res.policy, fmtPercent(res.avg_util),
                  fmtLatencyMs(SimTime(res.meanLatencySensitiveP99())),
                  fmtDouble(res.meanBandwidthIntensiveBw(), 1) +
                      " MB/s"});
        if (pk == PolicyKind::kFleetIoMixed) {
            std::cout << "FleetIO vs Mixed Isolation: util "
                      << fmtDouble(normalizeTo(res.avg_util,
                                               base.avg_util))
                      << "x (paper 1.27x), TeraSort BW "
                      << fmtDouble(normalizeTo(
                             res.meanBandwidthIntensiveBw(),
                             base.meanBandwidthIntensiveBw()))
                      << "x (paper 1.42x), P99 "
                      << fmtDouble(normalizeTo(
                             res.meanLatencySensitiveP99(),
                             base.meanLatencySensitiveP99()))
                      << "x (paper 1.19x)\n\n";
        }
    }
    t.print(std::cout);
    report.writeIfEnabled(argc, argv);
    return 0;
}
