/**
 * @file
 * The FleetIO controller: wires one RL agent into every managed vSSD,
 * runs the decision loop every window, computes Eq. 1/Eq. 2 rewards,
 * applies Set_Priority directly and routes Harvest/Make_Harvestable
 * through admission control, and schedules PPO fine-tuning.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include <string>

#include "src/cluster/features.h"
#include "src/cluster/workload_classifier.h"
#include "src/core/admission_control.h"
#include "src/core/agent.h"
#include "src/core/agent_supervisor.h"
#include "src/core/config.h"
#include "src/core/reward.h"
#include "src/core/state_extractor.h"
#include "src/core/training_lane.h"
#include "src/harvest/gsb_manager.h"
#include "src/obs/drift.h"
#include "src/obs/metrics.h"
#include "src/rl/checkpoint.h"
#include "src/virt/vssd.h"

namespace fleetio {

/**
 * Top-level FleetIO framework object (Fig. 5). Construct it over an
 * existing virtualized-SSD substrate, add the vSSDs it should manage,
 * then start() it alongside the workloads.
 *
 * Agent training runs behind the simulation on a TrainingLane: each
 * tick hands the window's imitation and PPO steps to the shared
 * training workers, and every method that touches an agent (and the
 * next tick) first waits for them (DESIGN.md §16).
 */
class FleetIoController
{
  public:
    /** Optional per-window feature provider for online workload typing
     *  (returns nothing when too little trace accumulated). */
    using FeatureProvider =
        std::function<std::optional<IoFeatures>(VssdId)>;

    /** Per-window reward transform (fault benches inject spikes). */
    using RewardHook = std::function<double(VssdId, double)>;

    FleetIoController(const FleetIoConfig &cfg, EventQueue &eq,
                      VssdManager &vssds, GsbManager &gsb);

    /**
     * Register a vSSD under FleetIO management, deploying a fresh agent
     * with reward coefficient @p alpha. May be called mid-run (elastic
     * hot-add): the new agent then bootstraps from the teacher policy
     * for late_join_teacher_windows (DESIGN.md §11) before PPO takes
     * over, exactly like a cold-start fleet does for teacher_windows.
     */
    FleetIoAgent &addVssd(Vssd &vssd, double alpha);

    /**
     * Retire a vSSD from management (elastic removal): detaches it from
     * the supervisor, drops its state history and reward telemetry, and
     * destroys its agent. The caller is responsible for the data-path
     * teardown (drain, gSB release, deallocation) — see
     * ElasticTenancyManager. @return true when the vSSD was managed.
     */
    bool removeVssd(VssdId id);

    /** The agent managing @p id (training finished), or nullptr. */
    FleetIoAgent *agent(VssdId id);
    std::size_t numAgents() const { return agents_.size(); }

    /** Begin the periodic decision loop (also starts admission). */
    void start();
    void stop();

    /** Run exactly one decision tick now (tests / benches). */
    void tick();

    /** Training on/off for every agent (deployment = off). */
    void setTraining(bool on);

    /** Greedy actions instead of sampling. */
    void setDeterministic(bool on);

    /** Install the online workload classifier (§3.4). */
    void setClassifier(const WorkloadClassifier *classifier,
                       FeatureProvider provider);

    AdmissionControl &admission() { return admission_; }
    const FleetIoConfig &config() const { return cfg_; }
    StateExtractor &states() { return extractor_; }

    /** Decision windows elapsed. */
    std::uint64_t windows() const { return windows_; }

    /** Mean blended reward observed over the run, per agent. */
    double lifetimeMeanReward(VssdId id) const;

    /** The watchdog, or nullptr when cfg.supervisor.enabled is false.
     *  It holds the agents, so this waits for training too. */
    AgentSupervisor *supervisor()
    {
        lane_.wait();
        return supervisor_.get();
    }
    const AgentSupervisor *supervisor() const
    {
        lane_.wait();
        return supervisor_.get();
    }

    /**
     * Run agent training on @p workers instead of the process's shared
     * pool; nullptr runs it inline on the calling thread. A test seam:
     * both must train bit-identically.
     */
    void setTrainingWorkers(TrainingWorkers *workers)
    {
        lane_.setWorkers(workers);
    }

    /**
     * Install a reward transform applied to each agent's blended reward
     * before it reaches the rollout buffer and the supervisor. Fault
     * benches use it to inject divergent reward spikes.
     */
    void setRewardHook(RewardHook hook) { reward_hook_ = std::move(hook); }

    /**
     * Enable periodic on-disk checkpoints under @p dir (one rotating
     * CheckpointStore per managed vSSD, "agent-<id>.ckpt"), every
     * @p interval_windows decision windows. Also configurable via the
     * FLEETIO_CHECKPOINT_DIR / FLEETIO_CHECKPOINT_INTERVAL_WINDOWS
     * environment knobs (read at construction; this call overrides).
     */
    void setCheckpointDir(const std::string &dir, int interval_windows);

    /** Snapshot every agent to its store now. @return agents saved. */
    std::size_t saveCheckpoints();

    /** Restore every agent whose store holds a valid snapshot.
     *  @return agents restored. */
    std::size_t loadCheckpoints();

    /** Aggregated supervision / resilience counters for reporting. */
    SupervisionStats supervisionStats() const;

    /**
     * Attach a metrics registry (nullptr = off, the default). Each tick
     * then publishes per-tenant "t<id>.reward" gauges and the
     * "controller.windows" counter.
     */
    void setMetrics(obs::MetricsRegistry *m)
    {
        metrics_ = m;
        reward_gauges_.clear();
        windows_counter_ =
            m != nullptr ? &m->counter("controller.windows") : nullptr;
    }

    /**
     * Attach an agent drift monitor (nullptr = off, the default). Each
     * tick then records every agent's action code, closes the drift
     * window, publishes per-tenant "t<id>.drift_psi" / "t<id>.drift_kl"
     * gauges (when metrics are on), and surfaces flagged windows to the
     * supervisor as informational telemetry. Never feeds back into
     * decisions: a monitored run decides bit-identically.
     */
    void setDriftMonitor(obs::DriftMonitor *d) { drift_ = d; }

  private:
    struct Managed
    {
        Vssd *vssd;
        std::unique_ptr<FleetIoAgent> agent;
        std::unique_ptr<rl::CheckpointStore> store;
        double reward_sum = 0.0;
        std::uint64_t reward_count = 0;
        /** Last window (inclusive) of this agent's teacher bootstrap.
         *  For vSSDs added before start() this equals teacher_windows,
         *  reproducing the old global check bit-for-bit. */
        std::uint64_t teacher_until = 0;
    };

    void scheduleTick();
    void applyAction(Managed &m, const AgentAction &action);
    void attachStore(Managed &m);

    FleetIoConfig cfg_;
    EventQueue &eq_;
    VssdManager &vssds_;
    GsbManager &gsb_;
    AdmissionControl admission_;
    StateExtractor extractor_;
    std::vector<Managed> managed_;
    std::vector<FleetIoAgent *> agents_;

    const WorkloadClassifier *classifier_ = nullptr;
    FeatureProvider feature_provider_;

    std::unique_ptr<AgentSupervisor> supervisor_;
    RewardHook reward_hook_;
    obs::MetricsRegistry *metrics_ = nullptr;
    obs::DriftMonitor *drift_ = nullptr;
    obs::Counter *windows_counter_ = nullptr;
    std::vector<obs::Gauge *> reward_gauges_;  // by managed index
    std::string checkpoint_dir_;
    int checkpoint_interval_ = 0;
    std::uint64_t disk_checkpoints_ = 0;

    bool running_ = false;
    std::uint64_t windows_ = 0;
    std::uint64_t seed_counter_ = 0x517cc1b727220a95ull;

    /** Last member: destroyed first, so its destructor's wait ends
     *  every job before the agents go. Mutable: const readers of
     *  agent state wait too. */
    mutable TrainingLane lane_{&TrainingWorkers::shared()};
};

}  // namespace fleetio
