/**
 * @file
 * Figure 6 reproduction: k-means clustering of cloud workloads from
 * block-trace features (read BW, write BW, LPA entropy, avg I/O size),
 * PCA-projected to two factors. Paper result: bandwidth-intensive
 * workloads separate from latency-sensitive ones, YCSB forms its own
 * low-entropy cluster, and 98.4 % of held-out windows land in their
 * workload's ground-truth cluster.
 */
#include <numeric>

#include "bench/bench_common.h"
#include "src/cluster/features.h"
#include "src/cluster/pca.h"
#include "src/cluster/workload_classifier.h"

using namespace fleetio;
using namespace fleetio::bench;

namespace {

struct TracedWindows
{
    std::vector<rl::Vector> features;
    std::vector<int> ids;
};

/** Run one workload solo and extract feature windows from its trace. */
std::vector<rl::Vector>
collectWindowsFor(WorkloadKind kind)
{
    TestbedOptions opts;
    Testbed tb(opts);
    std::vector<ChannelId> all(opts.geo.num_channels);
    std::iota(all.begin(), all.end(), 0);
    Vssd &v =
        tb.addTenant(kind, all, opts.geo.totalBlocks(), msec(50));
    auto &wl = tb.workload(v.id());
    wl.enableTrace(60000);
    tb.warmupFill();
    tb.startWorkloads();
    tb.run(sec(20));
    // Scaled trace volume: 1K-request windows stand in for the
    // paper's 10K windows (same features, shorter traces).
    const auto windows = extractWindows(wl.trace(), opts.geo.page_size,
                                        v.ftl().logicalPages(), 1000);
    std::vector<rl::Vector> out;
    out.reserve(windows.size());
    for (const auto &f : windows)
        out.push_back(f.toVector());
    return out;
}

/** Trace every workload (one solo run each, in parallel). */
TracedWindows
collectWindows(const std::vector<WorkloadKind> &kinds)
{
    const auto per_kind = parallelMap(
        kinds, [](const WorkloadKind &k) { return collectWindowsFor(k); });
    TracedWindows out;
    for (std::size_t w = 0; w < per_kind.size(); ++w) {
        for (auto &f : per_kind[w]) {
            out.features.push_back(f);
            out.ids.push_back(int(w));
        }
    }
    return out;
}

}  // namespace

int
main(int argc, char **argv)
{
    banner("Figure 6: workload clustering (k-means + PCA)");
    BenchReport report("fig06_clustering");
    report.setJobs(benchJobs());
    // 8 evaluated workloads, as plotted in Fig. 6.
    const std::vector<WorkloadKind> kinds = {
        WorkloadKind::kMlPrep,       WorkloadKind::kPageRank,
        WorkloadKind::kTeraSort,     WorkloadKind::kYcsbB,
        WorkloadKind::kLiveMaps,     WorkloadKind::kSearchEngine,
        WorkloadKind::kTpce,         WorkloadKind::kVdiWeb};

    const auto all = collectWindows(kinds);
    std::cout << "collected " << all.features.size()
              << " feature windows\n\n";

    // 70/30 train/test split, deterministic interleave.
    TracedWindows train, test;
    for (std::size_t i = 0; i < all.features.size(); ++i) {
        auto &dst = (i % 10 < 7) ? train : test;
        dst.features.push_back(all.features[i]);
        dst.ids.push_back(all.ids[i]);
    }

    WorkloadClassifier wc;
    wc.fit(train.features, train.ids);

    // Cluster composition table.
    Table comp({"workload", "type", "cluster", "windows"});
    for (std::size_t w = 0; w < kinds.size(); ++w) {
        int count = 0;
        for (std::size_t i = 0; i < train.ids.size(); ++i)
            count += train.ids[i] == int(w);
        comp.addRow({workloadName(kinds[w]),
                     isBandwidthIntensive(kinds[w]) ? "BI" : "LS",
                     std::to_string(wc.groundTruthCluster(int(w))),
                     std::to_string(count)});
    }
    comp.print(std::cout);

    // Invariants the paper's figure shows.
    const int c_bi = wc.groundTruthCluster(0);       // ML Prep
    const int c_ycsb = wc.groundTruthCluster(3);     // YCSB
    const int c_vdi = wc.groundTruthCluster(7);      // VDI-Web
    std::cout << "\nBI cluster=" << c_bi << "  YCSB cluster=" << c_ycsb
              << "  LS cluster=" << c_vdi << "\n";
    std::cout << "BI separated from LS: "
              << (c_bi != c_vdi ? "yes" : "NO") << "\n";
    std::cout << "YCSB has its own cluster (lower LPA entropy): "
              << (c_ycsb != c_vdi && c_ycsb != c_bi ? "yes" : "NO")
              << "\n";

    const double acc = wc.testAccuracy(test.features, test.ids);
    std::cout << "held-out window accuracy: " << fmtPercent(acc)
              << "  (paper: 98.4%)\n\n";
    report.setMetric("held_out_accuracy", acc);
    report.setMetric("feature_windows", double(all.features.size()));
    for (std::size_t w = 0; w < kinds.size(); ++w) {
        int count = 0;
        for (std::size_t i = 0; i < all.ids.size(); ++i)
            count += all.ids[i] == int(w);
        report.addCell(workloadName(kinds[w]),
                       {{"windows", double(count)},
                        {"cluster",
                         double(wc.groundTruthCluster(int(w)))}});
    }

    // PCA scatter (factor 1 / factor 2 centroids per workload).
    Rng rng(99);
    std::vector<rl::Vector> normed;
    for (const auto &f : train.features)
        normed.push_back(wc.normalize(f));
    Pca pca;
    pca.fit(normed, rng);
    Table scat({"workload", "factor 1 (mean)", "factor 2 (mean)"});
    for (std::size_t w = 0; w < kinds.size(); ++w) {
        double x = 0, y = 0;
        int cnt = 0;
        for (std::size_t i = 0; i < normed.size(); ++i) {
            if (train.ids[i] != int(w))
                continue;
            const auto [px, py] = pca.project(normed[i]);
            x += px;
            y += py;
            ++cnt;
        }
        scat.addRow({workloadName(kinds[w]),
                     fmtDouble(cnt ? x / cnt : 0),
                     fmtDouble(cnt ? y / cnt : 0)});
    }
    std::cout << "PCA projection (cluster centroids, cf. Fig. 6):\n";
    scat.print(std::cout);
    report.writeIfEnabled(argc, argv);
    return 0;
}
