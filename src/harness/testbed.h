/**
 * @file
 * Experiment testbed: one simulated SSD plus collocated tenants
 * (vSSD + workload pairs), with warm-up, measurement windows, and
 * device-utilization sampling — the scaffolding every benchmark and
 * integration test builds on.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/elastic_tenancy.h"
#include "src/core/recovery.h"
#include "src/harvest/gsb_manager.h"
#include "src/harvest/harvested_block_table.h"
#include "src/obs/drift.h"
#include "src/obs/metrics.h"
#include "src/obs/probe.h"
#include "src/sim/event_queue.h"
#include "src/ssd/flash_device.h"
#include "src/virt/io_scheduler.h"
#include "src/virt/vssd.h"
#include "src/workloads/generators.h"
#include "src/workloads/workload.h"

namespace fleetio {

/**
 * One scheduled elastic-tenancy event. Offsets are relative to the
 * startChurn() call (runExperiment starts churn when measurement
 * begins, so offsets land inside the measured region).
 */
struct ChurnEvent
{
    enum class Kind { kArrive, kRemove };

    SimTime at = 0;
    Kind kind = Kind::kArrive;

    // kArrive: the arriving tenant's demand. The workload kind doubles
    // as the admission demand-class, so arrivals of the same kind share
    // one learned forecast.
    WorkloadKind workload = WorkloadKind::kYcsbB;
    double declared_mbps = 0.0;
    std::uint32_t channels = 0;
    std::uint64_t quota_blocks = 0;
    SimTime slo = kTimeNever;

    // kRemove: which tenant departs.
    VssdId remove_id = kNoVssd;
};

/** Scale/behaviour knobs shared by tests and benches. */
struct TestbedOptions
{
    SsdGeometry geo = benchGeometry();

    /**
     * Decision/measurement window. Benches compress the paper's 2 s
     * windows (the RL dynamics depend on windows, not wall seconds).
     */
    SimTime window = msec(100);

    /** Workload intensity multiplier (see profileFor). */
    double intensity = 1.0;

    std::uint64_t seed = 1;

    /** Fraction of each tenant's logical space pre-filled before the
     *  run so GC is active (paper §4.1: >= 50 % of free blocks). */
    double warmup_fill = 0.5;

    /** Fault-injection knobs. All probabilities default to zero, which
     *  keeps every run bit-identical to a fault-free device. */
    FaultConfig faults{};

    /** Observability switches (DESIGN.md §9). Both default off, which
     *  keeps the run bit-identical to a testbed without the obs layer:
     *  no tracer is created, no metrics registry is attached, and the
     *  window sampler does no extra work. */
    struct ObsOptions
    {
        bool trace = false;    ///< record trace events (Perfetto export)
        bool metrics = false;  ///< per-window metrics snapshots
        std::size_t trace_capacity = std::size_t(1) << 16;

        /** Latency attribution + SLO verdicts (DESIGN.md §13). */
        bool attribution = false;
        std::size_t attr_top_k = 16;

        /** Agent drift monitors (PSI/KL vs recorded baseline). */
        bool drift = false;
        std::uint64_t drift_baseline_windows = 8;
        double drift_psi_threshold = 0.25;
    };
    ObsOptions obs{};

    /** Elastic-tenancy churn (DESIGN.md §11). An empty schedule keeps
     *  the elastic layer entirely unconstructed — no extra events, no
     *  extra state — so static runs stay byte-identical to a testbed
     *  without it. Churn assumes a hardware-isolated static layout
     *  (each channel owned by at most one tenant). */
    struct ChurnOptions
    {
        std::vector<ChurnEvent> schedule;
        ElasticTenancyConfig elastic{};
        bool enabled() const { return !schedule.empty(); }
    };
    ChurnOptions churn{};

    /** Crash/recovery (DESIGN.md §12). With no plan armed the
     *  durability model and injector are never constructed, so
     *  crash-free runs stay byte-identical to a testbed without the
     *  subsystem. */
    struct CrashOptions
    {
        CrashPlan plan{};

        /** Mapping-table checkpoint cadence (bounds the RPO). */
        SimTime checkpoint_interval = msec(50);

        /** Chaos knobs, applied at the crash instant (a torn write cut
         *  mid-flight by the power loss). */
        bool corrupt_checkpoint = false;  ///< current slot fails checksum
        bool torn_journal_tail = false;   ///< newest journal record torn

        bool enabled() const { return plan.enabled(); }
    };
    CrashOptions crash{};
};

/**
 * Owns the full simulated stack. Tenants are added with explicit
 * channel sets and block quotas (the policy decides those), each paired
 * with a calibrated synthetic workload.
 */
class Testbed
{
  public:
    explicit Testbed(const TestbedOptions &opts);

    EventQueue &eq() { return eq_; }
    FlashDevice &device() { return dev_; }
    const FlashDevice &device() const { return dev_; }
    HarvestedBlockTable &hbt() { return hbt_; }
    VssdManager &vssds() { return vssds_; }
    GsbManager &gsb() { return gsb_; }
    IoScheduler &scheduler() { return sched_; }
    const TestbedOptions &options() const { return opts_; }

    /** The fault oracle. With all probabilities 0 it is inert and not
     *  installed on the device; its counters then stay zero. */
    FaultInjector &faults() { return faults_; }
    const FaultCounters &faultCounters() const { return faults_.counters(); }

    /** The run's trace recorder, or nullptr when opts.obs.trace is off. */
    obs::TraceRecorder *tracer() { return tracer_.get(); }

    /** The run's attribution hub, or nullptr when opts.obs.attribution
     *  is off (the device's emit macros then cost one pointer test). */
    obs::AttributionHub *attribution() { return attr_.get(); }

    /** The run's agent drift monitor, or nullptr when opts.obs.drift is
     *  off. Fed by the controller's decision loop. */
    obs::DriftMonitor *drift() { return drift_.get(); }

    /** The run's metrics registry, or nullptr when opts.obs.metrics is
     *  off. Snapshotted once per window by the utilization sampler. */
    obs::MetricsRegistry *metrics()
    {
        return opts_.obs.metrics ? &metrics_ : nullptr;
    }

    /**
     * Create a tenant: a vSSD on @p channels with @p quota blocks and
     * SLO @p slo, driven by the profile of @p kind.
     * @return the new vSSD.
     */
    Vssd &addTenant(WorkloadKind kind,
                    const std::vector<ChannelId> &channels,
                    std::uint64_t quota, SimTime slo);

    std::size_t numTenants() const { return workloads_.size(); }
    SyntheticWorkload &workload(VssdId id) { return *workloads_[id]; }
    WorkloadKind tenantKind(VssdId id) const { return kinds_[id]; }

    /**
     * The elastic-tenancy manager, or nullptr when no churn schedule is
     * configured (static runs never construct the elastic layer).
     */
    ElasticTenancyManager *elastic() { return elastic_.get(); }

    // --- Crash / recovery (DESIGN.md §12) -------------------------------

    /** The durability model / power-loss injector, or nullptr when no
     *  crash plan is configured. */
    DurabilityModel *durability() { return durability_.get(); }
    PowerLossInjector *powerLoss() { return injector_.get(); }

    /** Attach the RL controller so recovery can reload agent
     *  checkpoints and impose probation. Optional; nullptr runs recover
     *  the device only. */
    void setController(FleetIoController *ctrl) { ctrl_ = ctrl; }

    /** Did a crash fire and get recovered during run()? */
    bool recovered() const { return recovery_report_.recovered; }
    const RecoveryReport &recoveryReport() const
    {
        return recovery_report_;
    }

    /** The pre-crash shadow (bench verdicts compare against it). */
    const CrashShadow &crashShadow() const { return shadow_; }

    /** Invoked after an admitted arrival is provisioned (vSSD created,
     *  workload started); RL policies use it to attach a mid-run agent
     *  bootstrapped from the teacher. */
    using TenantHook = std::function<void(Vssd &)>;
    void setOnTenantAdded(TenantHook hook)
    {
        on_tenant_added_ = std::move(hook);
    }

    /**
     * Record the static layout in the channel ledger and schedule every
     * churn event relative to now; also starts the pressure/degradation
     * loop. No-op without a churn schedule.
     */
    void startChurn();

    /** Pre-fill every tenant's logical space (no simulated time). */
    void warmupFill();

    /** Start / stop all workload generators. */
    void startWorkloads();
    void stopWorkloads();

    /** Advance the simulation by @p duration. */
    void run(SimTime duration);

    /**
     * Reset all tenant statistics and begin sampling device bandwidth
     * utilization once per window.
     */
    void beginMeasurement();

    /** Stop sampling; folds trailing windows. */
    void endMeasurement();

    SimTime measureStart() const { return measure_start_; }

    /** Mean / 95th-percentile of the per-window device utilization. */
    double avgUtilization() const;
    double p95Utilization() const;
    const std::vector<double> &utilizationSamples() const
    {
        return util_samples_;
    }

  private:
    VssdId provisionTenant(const TenantDemand &demand,
                           const std::vector<ChannelId> &channels);
    void sampleUtilization();
    void observeWindow(double util);
    void rollAttributionWindow(SimTime now);
    RecoveryManager::Refs recoveryRefs();
    void onCrash();
    void recordAck(const IoRequest &req);
    void scheduleCheckpoint();
    void writeDeviceCheckpoint();
    void recoverFromCrash();
    std::uint64_t auditAckedWrites() const;

    TestbedOptions opts_;
    EventQueue eq_;
    FaultInjector faults_;
    FlashDevice dev_;
    HarvestedBlockTable hbt_;
    VssdManager vssds_;
    GsbManager gsb_;
    IoScheduler sched_;
    std::unique_ptr<obs::TraceRecorder> tracer_;
    std::unique_ptr<obs::AttributionHub> attr_;
    std::unique_ptr<obs::DriftMonitor> drift_;
    obs::MetricsRegistry metrics_;
    obs::Probe probe_;
    std::unique_ptr<ElasticTenancyManager> elastic_;
    std::unique_ptr<DurabilityModel> durability_;
    std::unique_ptr<PowerLossInjector> injector_;
    FleetIoController *ctrl_ = nullptr;
    CrashShadow shadow_;
    RecoveryReport recovery_report_;
    /** Acked-write ledger: per tenant, which LPAs completed a host
     *  write (zero-acked-loss audit). Indexed [vssd][lpa]. */
    std::vector<std::vector<bool>> acked_;
    TenantHook on_tenant_added_;
    std::vector<std::unique_ptr<SyntheticWorkload>> workloads_;
    std::vector<WorkloadKind> kinds_;

    bool measuring_ = false;
    SimTime measure_start_ = 0;
    SimTime last_sample_ = 0;
    std::vector<double> util_samples_;
    std::uint64_t tenant_seed_ = 0;
    std::uint64_t window_index_ = 0;
    std::vector<std::uint64_t> last_tenant_bytes_;
};

}  // namespace fleetio
