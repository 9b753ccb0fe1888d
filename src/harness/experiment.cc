#include "src/harness/experiment.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>

#include "src/core/thread_annotations.h"
#include "src/virt/channel_allocator.h"

namespace fleetio {

namespace {

/** One calibrated-SLO cache entry. Heap-boxed by SloCache so map
 *  rebalancing never moves the once_flag. */
struct SloEntry
{
    std::once_flag once;
    SimTime slo = 0;
};

using SloKey = std::tuple<int, std::size_t, std::uint32_t,
                          std::uint32_t, long>;

/**
 * The only cross-cell state in a parallel sweep: a per-key
 * once-calibration cache. The mutex only guards the map lookup; the
 * (multi-second) solo simulation runs under the entry's once_flag, so
 * concurrent sweep cells needing the same SLO block on one
 * calibration instead of duplicating it, while cells needing
 * *different* SLOs calibrate concurrently.
 */
class SloCache
{
  public:
    SloEntry *intern(const SloKey &key)
    {
        std::lock_guard<std::mutex> g(mu_);
        auto &slot = entries_[key];
        if (!slot)
            slot = std::make_unique<SloEntry>();
        return slot.get();
    }

  private:
    std::mutex mu_;
    std::map<SloKey, std::unique_ptr<SloEntry>> entries_
        FLEETIO_GUARDED_BY(mu_);
};

/** Close trace artifact @p os and name @p path on stderr when it was
 *  not written (say, FLEETIO_TRACE_DIR is not an existing directory).
 *  @return true when the artifact was written. */
bool
closeArtifact(std::ofstream &os, const std::string &path)
{
    os.close();
    if (os)
        return true;
    std::fprintf(stderr, "fleetio: could not write %s\n", path.c_str());
    return false;
}

}  // namespace

double
ExperimentResult::aggregateBwMBps() const
{
    double s = 0.0;
    for (const auto &t : tenants)
        s += t.avg_bw_mbps;
    return s;
}

double
ExperimentResult::meanLatencySensitiveP99() const
{
    double s = 0.0;
    int n = 0;
    for (const auto &t : tenants) {
        if (!t.bandwidth_intensive) {
            s += double(t.p99);
            ++n;
        }
    }
    return n ? s / n : 0.0;
}

double
ExperimentResult::meanBandwidthIntensiveBw() const
{
    double s = 0.0;
    int n = 0;
    for (const auto &t : tenants) {
        if (t.bandwidth_intensive) {
            s += t.avg_bw_mbps;
            ++n;
        }
    }
    return n ? s / n : 0.0;
}

SimTime
calibratedSlo(WorkloadKind kind, std::size_t num_tenants,
              const TestbedOptions &opts)
{
    static SloCache cache;
    const SloKey key{int(kind), num_tenants,
                     opts.geo.blocks_per_chip,
                     opts.geo.pages_per_block,
                     long(opts.intensity * 1000)};
    SloEntry *entry = cache.intern(key);
    std::call_once(entry->once, [&]() {
        // Solo run on a hardware-isolated share of the device.
        TestbedOptions solo = opts;
        solo.seed = 0xCA11B7A7Eull;  // calibration uses its own seed
        // Calibration is a throwaway inner run: never trace it, and
        // keep its cache entry independent of the caller's obs knobs.
        solo.obs = {};
        // SLOs describe the *healthy* device: calibrate fault-free so
        // an injected-fault sweep measures degradation against a fixed
        // bar.
        solo.faults = FaultConfig{};
        Testbed tb(solo);
        const auto &geo = tb.device().geometry();
        const auto split =
            ChannelAllocator::equalSplit(geo, num_tenants);
        const std::uint64_t quota = geo.totalBlocks() / num_tenants;
        Vssd &v = tb.addTenant(kind, split[0], quota, kTimeNever);
        tb.warmupFill();
        tb.startWorkloads();
        tb.run(sec(1));
        tb.beginMeasurement();
        tb.run(sec(4));
        tb.endMeasurement();
        const SimTime p99 = v.latency().quantile(0.99);
        // Guard against degenerate calibration (no completed I/O).
        entry->slo = p99 > 0 ? p99 : msec(10);
    });
    return entry->slo;
}

ExperimentResult
collectResult(Testbed &tb, Policy &policy, SimTime measure)
{
    ExperimentResult res;
    res.policy = policy.name();
    res.measured = measure;
    res.sim_events = tb.eq().dispatched();
    res.avg_util = tb.avgUtilization();
    res.p95_util = tb.p95Utilization();
    res.write_amp = tb.device().writeAmplification();
    res.faults = tb.faultCounters();
    res.blocks_retired = tb.device().totalRetiredBlocks();
    res.gsb_revokes = tb.gsb().revokedCount();
    if (tb.elastic() != nullptr)
        res.churn = tb.elastic()->stats();
    for (auto *v : tb.vssds().active()) {
        res.program_fail_repairs += v->ftl().programFailRepairs();
    }
    for (auto *v : tb.vssds().active()) {
        TenantResult t;
        t.workload = tb.workload(v->id()).name();
        t.bandwidth_intensive =
            isBandwidthIntensive(tb.tenantKind(v->id()));
        t.avg_bw_mbps = v->bandwidth().totalMBps(measure);
        t.iops = double(v->latency().totalCount()) /
                 toSeconds(measure);
        t.p50 = v->latency().quantile(0.50);
        t.p95 = v->latency().quantile(0.95);
        t.p99 = v->latency().quantile(0.99);
        t.p999 = v->latency().quantile(0.999);
        t.slo_violation = v->latency().sloViolation();
        t.requests = v->latency().totalCount();
        t.slo = v->config().slo;
        res.tenants.push_back(std::move(t));
    }
    if (obs::AttributionHub *hub = tb.attribution()) {
        res.attr_requests = hub->requests();
        res.attr_sum_mismatches = hub->sumMismatches();
        res.slo_verdicts = hub->verdicts().size();
        res.verdict_self_load =
            hub->verdictCount(obs::VerdictCause::kSelfLoad);
        res.verdict_gc = hub->verdictCount(obs::VerdictCause::kGc);
        res.verdict_neighbor =
            hub->verdictCount(obs::VerdictCause::kNeighbor);
        res.verdict_tier =
            hub->verdictCount(obs::VerdictCause::kDegradationTier);
        res.verdict_retry =
            hub->verdictCount(obs::VerdictCause::kFaultRetry);
    }
    if (obs::DriftMonitor *drift = tb.drift()) {
        res.drift_windows_scored = drift->windowsScored();
        res.drift_flags = drift->flaggedWindows();
        res.max_drift_psi = drift->maxPsi();
    }
    policy.collectStats(res);
    return res;
}

ExperimentResult
runExperiment(const ExperimentSpec &spec)
{
    // FLEETIO_TRACE=1 turns on the full obs pipeline for any run that
    // reaches this harness (benches, examples) without recompiling;
    // explicit spec.opts.obs settings are honoured either way.
    TestbedOptions opts = spec.opts;
    const bool trace_env = obs::traceEnabledFromEnv();
    if (trace_env) {
        opts.obs.trace = true;
        opts.obs.metrics = true;
        opts.obs.attribution = true;
        opts.obs.drift = true;
    }

    obs::PhaseProfiler prof;
    prof.begin("calibrate");

    // 1. Per-tenant SLOs from hardware-isolated calibration.
    std::vector<SimTime> slos;
    slos.reserve(spec.workloads.size());
    for (WorkloadKind kind : spec.workloads) {
        slos.push_back(
            calibratedSlo(kind, spec.workloads.size(), spec.opts));
    }

    // 2. Build the testbed under the policy.
    prof.begin("build");
    Testbed tb(opts);
    auto policy = makePolicy(spec.policy);
    policy->setup(tb, spec.workloads, slos);

    // 3. Warm up: pre-fill capacity, settle into steady state.
    prof.begin("warmup", tb.eq().dispatched());
    tb.warmupFill();
    tb.startWorkloads();
    tb.run(spec.warm_run);

    // 4. Policy preparation (RL pre-training, DNN profiling, ...).
    prof.begin("prepare", tb.eq().dispatched());
    policy->prepare(tb);

    // 5. Measure.
    prof.begin("measure", tb.eq().dispatched());
    policy->beforeMeasure(tb);
    tb.beginMeasurement();
    // Elastic churn (if configured) plays out inside the measured
    // region; a no-op for static runs.
    tb.startChurn();
    tb.run(spec.measure);
    tb.endMeasurement();

    // 6. Collect.
    prof.begin("collect", tb.eq().dispatched());
    ExperimentResult res = collectResult(tb, *policy, spec.measure);

    // Env-enabled runs drop their artifacts next to the bench output;
    // the atomic sequence keeps parallel-harness filenames unique.
    if (trace_env) {
        static std::atomic<std::uint64_t> artifact_seq{0};
        const std::uint64_t n =
            artifact_seq.fetch_add(1, std::memory_order_relaxed);
        const std::string base = obs::traceDirFromEnv() +
                                 "/fleetio_run" + std::to_string(n);
        if (tb.tracer() != nullptr) {
            const std::string path = base + ".trace.json";
            std::ofstream os(path);
            tb.tracer()->writeChromeJson(os);
            if (closeArtifact(os, path) &&
                tb.tracer()->droppedCount() > 0) {
                std::fprintf(stderr,
                             "fleetio: trace ring overwrote %llu "
                             "event(s) (%s is truncated; "
                             "raise obs.trace_capacity)\n",
                             (unsigned long long)
                                 tb.tracer()->droppedCount(),
                             path.c_str());
            }
        }
        if (tb.attribution() != nullptr) {
            const std::string path = base + ".attribution.json";
            std::ofstream os(path);
            tb.attribution()->writeJson(os, tb.drift());
            closeArtifact(os, path);
        }
        if (tb.metrics() != nullptr) {
            const std::string csv_path = base + ".metrics.csv";
            std::ofstream csv(csv_path);
            tb.metrics()->writeCsv(csv);
            closeArtifact(csv, csv_path);
            const std::string js_path = base + ".metrics.json";
            std::ofstream js(js_path);
            tb.metrics()->writeJson(js);
            closeArtifact(js, js_path);
        }
    }

    prof.end(tb.eq().dispatched());
    res.phases = prof.phases();
    return res;
}

}  // namespace fleetio
