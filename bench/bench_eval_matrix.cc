/**
 * @file
 * The evaluation matrix: the six §4.2 LS+BI collocation pairs under
 * the five main policies and the two reward ablations, run once
 * (6 pairs x 7 policies = 42 cells) and rendered in paper order as
 * Figures 2, 3, 10, 11, 12, 13 and 15. Each figure is a view over the
 * one result set and looks its cells up by (pair, policy).
 *
 * Paper results:
 *  - Fig. 2: software isolation improves average utilization over
 *    hardware isolation by up to 1.52x (1.39x avg).
 *  - Fig. 3: SW gives the bandwidth-intensive (BI) workload up to
 *    1.84x bandwidth, and the latency-sensitive (LS) one up to 2.02x
 *    P99.
 *  - Fig. 10: FleetIO improves utilization over HW by up to 1.39x
 *    (1.30x avg) while keeping P99 within ~1.2x of HW and well below
 *    SW / Adaptive (1.76x / 2.03x).
 *  - Fig. 11: FleetIO reaches ~93 % of SW's (best) utilization.
 *  - Fig. 12: FleetIO's LS P99 is 1.29-1.89x lower than SW / Adaptive
 *    and within ~1.2x of HW.
 *  - Fig. 13: FleetIO improves BI bandwidth 1.27-1.61x over HW (1.46x
 *    avg), ~89 % of SW's.
 *  - Fig. 15, the reward ablation: FleetIO-Customized-Local (custom
 *    alpha, beta = 1) behaves like HW, FleetIO-Unified-Global (one
 *    alpha for all agents) is inconsistent, and full FleetIO gets both
 *    utilization and isolation.
 */
#include <map>

#include "bench/bench_common.h"

using namespace fleetio;
using namespace fleetio::bench;

namespace {

using P = PolicyKind;
using CellKey = std::pair<std::size_t, PolicyKind>;  ///< (pair, policy)

/** Every cell of the run, keyed by pair index and policy. */
struct Matrix
{
    std::vector<std::vector<WorkloadKind>> pairs;
    std::map<CellKey, ExperimentResult> cells;

    const ExperimentResult &at(std::size_t pair, PolicyKind pk) const
    {
        return cells.at({pair, pk});
    }
};

/** One figure's heading; its tables and summary lines follow. */
void
section(const std::string &title)
{
    std::cout << "\n--------------------------------------------------\n"
              << title
              << "\n--------------------------------------------------\n\n";
}

void
fig02Util(const Matrix &m, BenchReport &report)
{
    section("Figure 2: utilization, Hardware vs Software Isolation");
    Table t({"pair", "HW avg util", "HW p95", "SW avg util", "SW p95",
             "SW/HW"});
    double ratio_sum = 0, ratio_max = 0;
    for (std::size_t i = 0; i < m.pairs.size(); ++i) {
        const auto &hw = m.at(i, P::kHardwareIsolation);
        const auto &sw = m.at(i, P::kSoftwareIsolation);
        const double ratio = normalizeTo(sw.avg_util, hw.avg_util);
        ratio_sum += ratio;
        ratio_max = std::max(ratio_max, ratio);
        t.addRow({pairLabel(m.pairs[i]), fmtPercent(hw.avg_util),
                  fmtPercent(hw.p95_util), fmtPercent(sw.avg_util),
                  fmtPercent(sw.p95_util), fmtDouble(ratio) + "x"});
    }
    const double n = double(m.pairs.size());
    t.print(std::cout);
    std::cout << "\nSoftware-isolation utilization improvement: avg "
              << fmtDouble(ratio_sum / n) << "x, max "
              << fmtDouble(ratio_max)
              << "x  (paper: 1.39x avg, up to 1.52x)\n";
    report.setMetric("sw_util_gain_avg", ratio_sum / n);
    report.setMetric("sw_util_gain_max", ratio_max);
}

void
fig03Perf(const Matrix &m, BenchReport &report)
{
    section("Figure 3: collocated performance, HW vs SW isolation");
    Table a({"BI workload (pair)", "HW BW (MB/s)", "SW BW (MB/s)",
             "SW/HW"});
    Table b({"LS workload (pair)", "HW P99", "SW P99", "SW/HW"});
    double bw_gain_sum = 0, lat_ratio_sum = 0;
    for (std::size_t i = 0; i < m.pairs.size(); ++i) {
        const auto &hw = m.at(i, P::kHardwareIsolation);
        const auto &sw = m.at(i, P::kSoftwareIsolation);
        const double bw_hw = hw.meanBandwidthIntensiveBw();
        const double bw_sw = sw.meanBandwidthIntensiveBw();
        const double p99_hw = hw.meanLatencySensitiveP99();
        const double p99_sw = sw.meanLatencySensitiveP99();
        bw_gain_sum += normalizeTo(bw_sw, bw_hw);
        lat_ratio_sum += normalizeTo(p99_sw, p99_hw);
        a.addRow({pairLabel(m.pairs[i]), fmtDouble(bw_hw, 1),
                  fmtDouble(bw_sw, 1),
                  fmtDouble(normalizeTo(bw_sw, bw_hw)) + "x"});
        b.addRow({pairLabel(m.pairs[i]), fmtLatencyMs(SimTime(p99_hw)),
                  fmtLatencyMs(SimTime(p99_sw)),
                  fmtDouble(normalizeTo(p99_sw, p99_hw)) + "x"});
    }
    const double n = double(m.pairs.size());
    std::cout << "(a) Bandwidth-intensive workload I/O bandwidth\n";
    a.print(std::cout);
    std::cout << "\n(b) Latency-sensitive workload P99 latency\n";
    b.print(std::cout);
    std::cout << "\nSW-isolation BI bandwidth gain avg "
              << fmtDouble(bw_gain_sum / n)
              << "x (paper: 1.64x avg, up to 1.84x); LS P99 inflation "
                 "avg "
              << fmtDouble(lat_ratio_sum / n)
              << "x (paper: up to 2.02x)\n";
    report.setMetric("sw_bi_bw_gain_avg", bw_gain_sum / n);
    report.setMetric("sw_ls_p99_inflation_avg", lat_ratio_sum / n);
}

void
fig10Tradeoff(const Matrix &m)
{
    section("Figure 10: utilization vs P99 trade-off (all policies)");
    Table t({"pair", "policy", "util gain vs HW",
             "LS P99 (norm. to HW)"});
    // Keyed by policy name, so the centroids print alphabetically.
    std::map<std::string, std::pair<double, double>> policy_sums;
    for (std::size_t i = 0; i < m.pairs.size(); ++i) {
        const auto &hw = m.at(i, P::kHardwareIsolation);
        for (PolicyKind pk : mainPolicies()) {
            const auto &res = m.at(i, pk);
            const double util_gain =
                normalizeTo(res.avg_util, hw.avg_util);
            const double p99_norm =
                normalizeTo(res.meanLatencySensitiveP99(),
                            hw.meanLatencySensitiveP99());
            t.addRow({pairLabel(m.pairs[i]), res.policy,
                      fmtDouble(util_gain) + "x",
                      fmtDouble(p99_norm) + "x"});
            policy_sums[res.policy].first += util_gain;
            policy_sums[res.policy].second += p99_norm;
        }
    }
    t.print(std::cout);

    std::cout << "\nScatter centroids (cf. Fig. 10 markers):\n";
    const double n = double(m.pairs.size());
    Table c({"policy", "mean util gain", "mean norm. P99"});
    for (const auto &[name, sums] : policy_sums) {
        c.addRow({name, fmtDouble(sums.first / n) + "x",
                  fmtDouble(sums.second / n) + "x"});
    }
    c.print(std::cout);
    std::cout << "\nExpected shape: FleetIO sits upper-left — more "
                 "utilization than HW/SSDKeeper at far lower P99 than "
                 "SW/Adaptive.\n";
}

void
fig11Util(const Matrix &m, BenchReport &report)
{
    section("Figure 11: storage utilization by policy");
    Table t({"pair", "HW", "SSDKeeper", "Adaptive", "SW", "FleetIO",
             "FleetIO/SW"});
    double frac_sum = 0;
    for (std::size_t i = 0; i < m.pairs.size(); ++i) {
        std::vector<std::string> row = {pairLabel(m.pairs[i])};
        for (PolicyKind pk : mainPolicies())
            row.push_back(fmtPercent(m.at(i, pk).avg_util));
        const double fleet_vs_sw =
            normalizeTo(m.at(i, P::kFleetIo).avg_util,
                        m.at(i, P::kSoftwareIsolation).avg_util);
        frac_sum += fleet_vs_sw;
        row.push_back(fmtPercent(fleet_vs_sw));
        t.addRow(row);
    }
    const double n = double(m.pairs.size());
    t.print(std::cout);
    std::cout << "\nFleetIO reaches " << fmtPercent(frac_sum / n)
              << " of Software Isolation's utilization on average "
                 "(paper: ~93%).\n";
    report.setMetric("fleetio_vs_sw_util_avg", frac_sum / n);
}

void
fig12Latency(const Matrix &m, BenchReport &report)
{
    section("Figure 12: normalized P99 of the LS workload");
    Table t({"pair", "HW P99 (abs)", "SSDKeeper", "Adaptive", "SW",
             "FleetIO", "SW/FleetIO"});
    double fleet_sum = 0, reduction_sum = 0;
    for (std::size_t i = 0; i < m.pairs.size(); ++i) {
        auto p99 = [&](PolicyKind pk) {
            return m.at(i, pk).meanLatencySensitiveP99();
        };
        const double base = p99(P::kHardwareIsolation);
        const double sw_vs_fleet =
            normalizeTo(p99(P::kSoftwareIsolation), p99(P::kFleetIo));
        fleet_sum += normalizeTo(p99(P::kFleetIo), base);
        reduction_sum += sw_vs_fleet;
        std::vector<std::string> row = {pairLabel(m.pairs[i]),
                                        fmtLatencyMs(SimTime(base))};
        for (PolicyKind pk : {P::kSsdKeeper, P::kAdaptive,
                              P::kSoftwareIsolation, P::kFleetIo})
            row.push_back(fmtDouble(normalizeTo(p99(pk), base)) + "x");
        row.push_back(fmtDouble(sw_vs_fleet) + "x");
        t.addRow(row);
    }
    const double n = double(m.pairs.size());
    t.print(std::cout);
    std::cout << "\nFleetIO P99 vs Hardware Isolation: "
              << fmtDouble(fleet_sum / n)
              << "x on average (paper: within ~1.2x).\n"
              << "FleetIO reduces P99 vs Software Isolation by "
              << fmtDouble(reduction_sum / n)
              << "x on average (paper headline: 1.5x).\n";
    report.setMetric("fleetio_p99_vs_hw_avg", fleet_sum / n);
    report.setMetric("fleetio_p99_reduction_vs_sw_avg",
                     reduction_sum / n);
}

void
fig13Bandwidth(const Matrix &m, BenchReport &report)
{
    section("Figure 13: normalized bandwidth of the BI workload");
    Table t({"pair", "HW BW (abs)", "SSDKeeper", "Adaptive", "SW",
             "FleetIO", "FleetIO/SW"});
    double gain_sum = 0, frac_sum = 0;
    for (std::size_t i = 0; i < m.pairs.size(); ++i) {
        auto bw = [&](PolicyKind pk) {
            return m.at(i, pk).meanBandwidthIntensiveBw();
        };
        const double base = bw(P::kHardwareIsolation);
        const double fleet_vs_sw =
            normalizeTo(bw(P::kFleetIo), bw(P::kSoftwareIsolation));
        gain_sum += normalizeTo(bw(P::kFleetIo), base);
        frac_sum += fleet_vs_sw;
        std::vector<std::string> row = {pairLabel(m.pairs[i]),
                                        fmtDouble(base, 1) + " MB/s"};
        for (PolicyKind pk : {P::kSsdKeeper, P::kAdaptive,
                              P::kSoftwareIsolation, P::kFleetIo})
            row.push_back(fmtDouble(normalizeTo(bw(pk), base)) + "x");
        row.push_back(fmtPercent(fleet_vs_sw));
        t.addRow(row);
    }
    const double n = double(m.pairs.size());
    t.print(std::cout);
    std::cout << "\nFleetIO BI bandwidth vs Hardware Isolation: "
              << fmtDouble(gain_sum / n)
              << "x avg (paper: 1.46x avg); fraction of Software "
                 "Isolation: "
              << fmtPercent(frac_sum / n) << " (paper: ~89%).\n";
    report.setMetric("fleetio_bi_bw_gain_avg", gain_sum / n);
    report.setMetric("fleetio_vs_sw_bw_avg", frac_sum / n);
}

void
fig15RewardAblation(const Matrix &m)
{
    section("Figure 15: reward-function ablation");
    Table a({"pair", "policy", "avg util"});
    Table b({"pair", "policy", "LS P99", "norm. to HW"});
    for (std::size_t i = 0; i < m.pairs.size(); ++i) {
        const double hw_p99 =
            m.at(i, P::kHardwareIsolation).meanLatencySensitiveP99();
        for (PolicyKind pk :
             {P::kHardwareIsolation, P::kFleetIoCustomizedLocal,
              P::kFleetIoUnifiedGlobal, P::kFleetIo,
              P::kSoftwareIsolation}) {
            const auto &res = m.at(i, pk);
            const double p99 = res.meanLatencySensitiveP99();
            a.addRow({pairLabel(m.pairs[i]), res.policy,
                      fmtPercent(res.avg_util)});
            b.addRow({pairLabel(m.pairs[i]), res.policy,
                      fmtLatencyMs(SimTime(p99)),
                      fmtDouble(normalizeTo(p99, hw_p99)) + "x"});
        }
    }
    std::cout << "(a) average storage utilization\n";
    a.print(std::cout);
    std::cout << "\n(b) P99 of the latency-sensitive workload\n";
    b.print(std::cout);
    std::cout << "\nExpected shape: Customized-Local's utilization "
                 "tracks Hardware Isolation (beta = 1 gives no "
                 "incentive to donate); full FleetIO lifts "
                 "utilization while holding P99 near HW.\n";
}

}  // namespace

int
main(int argc, char **argv)
{
    banner("Evaluation matrix: Figures 2, 3, 10-13 and 15 "
           "(6 pairs x 7 policies)");
    BenchReport report("eval_matrix");
    report.setJobs(benchJobs());

    std::vector<PolicyKind> policies = mainPolicies();
    policies.push_back(P::kFleetIoCustomizedLocal);
    policies.push_back(P::kFleetIoUnifiedGlobal);

    Matrix m;
    m.pairs = evaluationPairs();
    std::vector<CellKey> keys;
    std::vector<ExperimentSpec> specs;
    for (std::size_t i = 0; i < m.pairs.size(); ++i) {
        for (PolicyKind pk : policies) {
            keys.push_back({i, pk});
            specs.push_back(makeSpec(m.pairs[i], pk));
        }
    }
    const auto results = runExperiments(specs);
    for (std::size_t c = 0; c < results.size(); ++c) {
        report.addCell(pairLabel(m.pairs[keys[c].first]), results[c]);
        m.cells.emplace(keys[c], results[c]);
    }

    fig02Util(m, report);
    fig03Perf(m, report);
    fig10Tradeoff(m);
    fig11Util(m, report);
    fig12Latency(m, report);
    fig13Bandwidth(m, report);
    fig15RewardAblation(m);
    report.writeIfEnabled(argc, argv);
    return 0;
}
