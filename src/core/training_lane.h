/**
 * @file
 * The agents' training lane (DESIGN.md §16): each decision window's
 * behaviour-cloning step and PPO update run on a bounded, process-wide
 * worker pool while the event queue simulates the next window.
 *
 * Every agent learns only from its own transitions, so one agent's
 * update touches nothing another agent's update reads: its network,
 * Adam state, RNGs and replay buffers are its own. A job per agent, run
 * in the same per-agent order as the serial loop, therefore leaves
 * every weight bit-identical, whichever thread runs it.
 *
 * The one rule: wait() before touching an agent. FleetIoController does
 * so at the start of every tick and in every method that reads or
 * writes an agent.
 */
#pragma once

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <thread>
#include <vector>

#include "src/core/thread_annotations.h"
#include "src/rl/matrix.h"

namespace fleetio {

class FleetIoAgent;
class TrainingLane;

/**
 * A bounded set of threads that runs training lanes' jobs. One shared
 * instance serves every controller in the process, so concurrent cells
 * of a parallel sweep share one pool instead of each starting their own.
 */
class TrainingWorkers
{
  public:
    /** Start @p threads workers (0 = none: lanes then run inline). */
    explicit TrainingWorkers(unsigned threads);
    ~TrainingWorkers();

    TrainingWorkers(const TrainingWorkers &) = delete;
    TrainingWorkers &operator=(const TrainingWorkers &) = delete;

    /**
     * The process's pool: hardware_concurrency() - 1 workers, one core
     * being the simulation's. Built on first use; with no spare
     * hardware thread it has no workers and starts no thread.
     */
    static TrainingWorkers &shared();

    unsigned size() const { return unsigned(threads_.size()); }

  private:
    friend class TrainingLane;

    void workerLoop();
    /** Queue @p n jobs of @p lane for the workers. */
    void enqueue(TrainingLane &lane, std::size_t n) FLEETIO_EXCLUDES(mu_);
    /** Claim @p lane's next unclaimed job. @return its index, or
     *  ~0 when every job is claimed. */
    std::size_t claim(TrainingLane &lane) FLEETIO_REQUIRES(mu_);
    /** Run job @p j of @p lane with mu_ released, then count it done. */
    void runClaimed(TrainingLane &lane, std::size_t j,
                    std::unique_lock<std::mutex> &lk)
        FLEETIO_REQUIRES(mu_);

    std::mutex mu_;
    std::condition_variable work_cv_;
    std::condition_variable done_cv_;
    /** Lanes with unclaimed jobs, oldest first (intrusive list). */
    TrainingLane *head_ FLEETIO_GUARDED_BY(mu_) = nullptr;
    TrainingLane *tail_ FLEETIO_GUARDED_BY(mu_) = nullptr;
    bool stop_ FLEETIO_GUARDED_BY(mu_) = false;
    std::vector<std::thread> threads_;
};

/**
 * One controller's lane: a fixed job slot per agent, filled on the
 * simulation thread and run by the workers. Submitting allocates
 * nothing: the slots and their buffers are reused every window.
 */
class TrainingLane
{
  public:
    /** One agent's training work for one decision window. */
    struct Job
    {
        FleetIoAgent *agent = nullptr;

        /** Behaviour-cloning step: FleetIoAgent::imitate inputs. */
        bool imitate = false;
        rl::Vector state;
        std::vector<std::size_t> actions;
        double value_target = 0.0;

        /** PPO update, after the imitation step when both are set. */
        bool train = false;
        rl::Vector bootstrap;

        /** Run the imitation step, then the update, as flagged. */
        void run();
    };

    /** Run jobs on @p workers; nullptr or a pool without workers runs
     *  every job inline, on the submitting thread. */
    explicit TrainingLane(TrainingWorkers *workers);
    /** Waits for submitted jobs. */
    ~TrainingLane();

    TrainingLane(const TrainingLane &) = delete;
    TrainingLane &operator=(const TrainingLane &) = delete;

    /** Rebind to other workers (test seam); waits first. */
    void setWorkers(TrainingWorkers *workers);

    /** Provide at least @p n job slots. Waits first. */
    void reserve(std::size_t n);

    /** Slot @p i (i < reserved count). Only while the lane is idle. */
    Job &job(std::size_t i) { return jobs_[i]; }

    /** Hand slots [0, n) to the workers, or run them now when inline.
     *  A batch in which no slot has work is dropped. */
    void submit(std::size_t n);

    /**
     * Block until every submitted job has finished, helping with this
     * lane's unclaimed jobs meanwhile. Cheap when the lane is idle.
     */
    void wait();

  private:
    friend class TrainingWorkers;

    TrainingWorkers *workers_ = nullptr;
    std::vector<Job> jobs_;
    /** Owner-thread flag: a batch is out and not yet waited for. */
    bool busy_ = false;

    // Batch state, shared with the workers.
    std::size_t count_ FLEETIO_GUARDED_BY(mu_) = 0;
    std::size_t next_ FLEETIO_GUARDED_BY(mu_) = 0;
    std::size_t unfinished_ FLEETIO_GUARDED_BY(mu_) = 0;
    /** Queue link; a lane is queued while next_ < count_. */
    TrainingLane *next_lane_ FLEETIO_GUARDED_BY(mu_) = nullptr;
};

}  // namespace fleetio
