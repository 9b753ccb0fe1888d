/** @file The agents' training lane: pooled training against inline. */
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "src/core/training_lane.h"
#include "src/harness/experiment.h"
#include "src/policies/fleetio_policy.h"
#include "src/virt/channel_allocator.h"

namespace fleetio {
namespace {

/** Everything an agent has learned, byte for byte. */
struct AgentState
{
    VssdId id = kNoVssd;
    rl::AgentCheckpoint ckpt;  ///< weights, PPO Adam, both RNGs
    std::vector<double> bc_m, bc_v;
    std::uint64_t bc_t = 0;
    std::uint64_t decisions = 0;
    std::uint64_t optimizer_steps = 0;
};

bool
sameBytes(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) ==
               0;
}

AgentState
captureAgent(const FleetIoAgent &a)
{
    AgentState s;
    s.id = a.vssd();
    s.ckpt = a.snapshot();
    if (const rl::Adam *bc = a.imitationOptimizer()) {
        s.bc_m = bc->firstMoments();
        s.bc_v = bc->secondMoments();
        s.bc_t = bc->t();
    }
    s.decisions = a.decisions();
    s.optimizer_steps = a.trainer().optimizerSteps();
    return s;
}

void
expectSameAgent(const AgentState &x, const AgentState &y)
{
    EXPECT_EQ(x.id, y.id);
    EXPECT_TRUE(sameBytes(x.ckpt.params, y.ckpt.params)) << "agent " << x.id;
    EXPECT_TRUE(sameBytes(x.ckpt.adam_m, y.ckpt.adam_m)) << "agent " << x.id;
    EXPECT_TRUE(sameBytes(x.ckpt.adam_v, y.ckpt.adam_v)) << "agent " << x.id;
    EXPECT_EQ(x.ckpt.adam_t, y.ckpt.adam_t);
    EXPECT_EQ(x.ckpt.policy_rng, y.ckpt.policy_rng);
    EXPECT_EQ(x.ckpt.shuffle_rng, y.ckpt.shuffle_rng);
    EXPECT_TRUE(sameBytes(x.bc_m, y.bc_m)) << "agent " << x.id;
    EXPECT_TRUE(sameBytes(x.bc_v, y.bc_v)) << "agent " << x.id;
    EXPECT_EQ(x.bc_t, y.bc_t);
    EXPECT_EQ(x.decisions, y.decisions);
    EXPECT_EQ(x.optimizer_steps, y.optimizer_steps);
}

void
expectSameResult(const ExperimentResult &x, const ExperimentResult &y)
{
    EXPECT_EQ(x.sim_events, y.sim_events);
    EXPECT_EQ(x.avg_util, y.avg_util);
    EXPECT_EQ(x.p95_util, y.p95_util);
    EXPECT_EQ(x.write_amp, y.write_amp);
    EXPECT_EQ(x.gsb_revokes, y.gsb_revokes);
    EXPECT_EQ(x.churn.admitted, y.churn.admitted);
    EXPECT_EQ(x.churn.removals_completed, y.churn.removals_completed);
    EXPECT_EQ(x.agent_trips, y.agent_trips);
    EXPECT_EQ(x.agent_restores, y.agent_restores);
    EXPECT_EQ(x.agent_fallback_windows, y.agent_fallback_windows);
    EXPECT_EQ(x.agent_grad_skips, y.agent_grad_skips);
    EXPECT_EQ(x.agent_checkpoints, y.agent_checkpoints);
    ASSERT_EQ(x.tenants.size(), y.tenants.size());
    for (std::size_t i = 0; i < x.tenants.size(); ++i) {
        const TenantResult &a = x.tenants[i];
        const TenantResult &b = y.tenants[i];
        EXPECT_EQ(a.workload, b.workload);
        EXPECT_EQ(a.avg_bw_mbps, b.avg_bw_mbps);
        EXPECT_EQ(a.iops, b.iops);
        EXPECT_EQ(a.p50, b.p50);
        EXPECT_EQ(a.p95, b.p95);
        EXPECT_EQ(a.p99, b.p99);
        EXPECT_EQ(a.p999, b.p999);
        EXPECT_EQ(a.slo_violation, b.slo_violation);
        EXPECT_EQ(a.requests, b.requests);
    }
}

struct Cell
{
    ExperimentResult result;
    RecoveryReport recovery;
    std::vector<AgentState> agents;
};

/** Small FleetIO cell. Pre-training runs 150 windows: the teacher
 *  phase is the first 100, and the first PPO update lands at 140. */
struct CellShape
{
    TestbedOptions opts;
    int train_windows = 150;
    SimTime warm = msec(200);
    SimTime measure = msec(500);
    /** Crash cells: per-agent stores in this directory. */
    std::string checkpoint_dir;
};

CellShape
smallShape()
{
    CellShape c;
    c.opts.geo = testGeometry();
    c.opts.window = msec(50);
    return c;
}

/**
 * runExperiment's phases, with the controller in reach: training runs
 * on @p workers (nullptr = inline). Churn starts before pre-training so
 * its events land in the teacher and PPO phases.
 */
Cell
runCell(const CellShape &shape, TrainingWorkers *workers)
{
    Testbed tb(shape.opts);
    FleetIoPolicy::Variant var;
    var.train_windows = shape.train_windows;
    FleetIoPolicy policy(var);
    policy.setup(tb, {WorkloadKind::kVdiWeb, WorkloadKind::kTeraSort},
                 {msec(2), msec(30)});
    FleetIoController &ctrl = *policy.controller();
    ctrl.setTrainingWorkers(workers);
    if (!shape.checkpoint_dir.empty()) {
        std::filesystem::remove_all(shape.checkpoint_dir);
        std::filesystem::create_directories(shape.checkpoint_dir);
        tb.setController(&ctrl);
        ctrl.setCheckpointDir(shape.checkpoint_dir, 2);
    }
    tb.warmupFill();
    tb.startWorkloads();
    tb.run(shape.warm);
    tb.startChurn();
    policy.prepare(tb);
    policy.beforeMeasure(tb);
    tb.beginMeasurement();
    tb.run(shape.measure);
    tb.endMeasurement();

    Cell c;
    c.result = collectResult(tb, policy, shape.measure);
    c.recovery = tb.recoveryReport();
    for (VssdId id = 0; id < VssdId(tb.vssds().size()); ++id) {
        if (const FleetIoAgent *a = ctrl.agent(id))
            c.agents.push_back(captureAgent(*a));
    }
    if (!shape.checkpoint_dir.empty())
        std::filesystem::remove_all(shape.checkpoint_dir);
    return c;
}

void
expectSameCell(const Cell &inl, const Cell &pooled)
{
    expectSameResult(inl.result, pooled.result);
    ASSERT_EQ(inl.agents.size(), pooled.agents.size());
    for (std::size_t i = 0; i < inl.agents.size(); ++i)
        expectSameAgent(inl.agents[i], pooled.agents[i]);
}

/** Every agent cloned its teacher; at least one took a PPO step. */
void
expectBothPhasesTrained(const Cell &c)
{
    std::uint64_t ppo_steps = 0;
    for (const AgentState &a : c.agents) {
        EXPECT_GT(a.bc_t, 0u) << "agent " << a.id;
        ppo_steps += a.optimizer_steps;
    }
    EXPECT_GT(ppo_steps, 0u);
}

TEST(TrainingLane, PooledCellMatchesInline)
{
    TrainingWorkers workers(3);
    const CellShape shape = smallShape();
    const Cell inl = runCell(shape, nullptr);
    const Cell pooled = runCell(shape, &workers);
    ASSERT_EQ(inl.agents.size(), 2u);
    expectBothPhasesTrained(inl);
    expectSameCell(inl, pooled);
}

TEST(TrainingLane, PooledChurnCellMatchesInline)
{
    // Tenant 1 leaves early in the teacher phase; the arrival takes its
    // channels and joins mid-teacher-phase; tenant 0 leaves during PPO.
    CellShape shape = smallShape();
    const SsdGeometry &geo = shape.opts.geo;
    auto &sched = shape.opts.churn.schedule;
    ChurnEvent leave1;
    leave1.at = msec(200);
    leave1.kind = ChurnEvent::Kind::kRemove;
    leave1.remove_id = 1;
    ChurnEvent join;
    join.at = msec(250);
    join.kind = ChurnEvent::Kind::kArrive;
    join.workload = WorkloadKind::kYcsbB;
    join.channels = 4;
    join.quota_blocks =
        ChannelAllocator::quotaForChannels(geo, join.channels);
    join.declared_mbps = geo.channelBandwidthMBps() * join.channels;
    ChurnEvent leave0;
    leave0.at = msec(8800);  // window 180: PPO phase
    leave0.kind = ChurnEvent::Kind::kRemove;
    leave0.remove_id = 0;
    sched = {leave1, join, leave0};
    auto &adm = shape.opts.churn.elastic.admission;
    adm.backoff_base = msec(50);
    adm.backoff_cap = msec(400);
    adm.max_retries = 30;
    // 160 teacher windows. The arrival joins near window 40, so its own
    // bootstrap ends near window 200 and its first update lands at 240.
    shape.train_windows = 240;

    TrainingWorkers workers(3);
    const Cell inl = runCell(shape, nullptr);
    const Cell pooled = runCell(shape, &workers);
    EXPECT_EQ(inl.result.churn.removals_completed, 2u);
    EXPECT_GE(inl.result.churn.admitted, 1u);
    ASSERT_EQ(inl.agents.size(), 1u);  // only the arrival remains
    EXPECT_EQ(inl.agents[0].id, 2u);
    expectBothPhasesTrained(inl);
    expectSameCell(inl, pooled);
}

TEST(TrainingLane, PooledCrashRecoveryCellMatchesInline)
{
    // Power loss in the PPO phase; recovery reloads every agent from
    // its on-disk store (saved every 2 windows) and puts it on
    // probation.
    CellShape shape = smallShape();
    shape.opts.crash.plan.trigger = CrashPlan::Trigger::kSimTime;
    // Window 145: just after the first update (ticks count from t=0).
    shape.opts.crash.plan.at = msec(50) * 145 + usec(7);
    const std::string base =
        (std::filesystem::temp_directory_path() /
         ("fleetio_lane_test_" + std::to_string(::getpid())))
            .string();

    TrainingWorkers workers(3);
    shape.checkpoint_dir = base + "_inline";
    const Cell inl = runCell(shape, nullptr);
    shape.checkpoint_dir = base + "_pooled";
    const Cell pooled = runCell(shape, &workers);
    ASSERT_TRUE(inl.recovery.recovered);
    EXPECT_EQ(inl.recovery.agents_restored, 2u);
    EXPECT_EQ(pooled.recovery.agents_restored, 2u);
    expectBothPhasesTrained(inl);
    expectSameCell(inl, pooled);
}

/**
 * agent() and saveCheckpoints() must see the window's training done:
 * after every window, the pooled cell's agents (read through agent())
 * and its checkpoint files equal the inline twin's.
 */
TEST(TrainingLane, AgentAndCheckpointsSeeFinishedTraining)
{
    const CellShape shape = smallShape();
    TrainingWorkers workers(3);
    struct Side
    {
        Testbed tb;
        FleetIoPolicy policy;
        std::string dir;
        Side(const CellShape &s, TrainingWorkers *w, std::string d)
            : tb(s.opts), policy([&s]() {
                  FleetIoPolicy::Variant v;
                  v.train_windows = s.train_windows;
                  return v;
              }()),
              dir(std::move(d))
        {
            policy.setup(tb,
                         {WorkloadKind::kVdiWeb, WorkloadKind::kTeraSort},
                         {msec(2), msec(30)});
            policy.controller()->setTrainingWorkers(w);
            std::filesystem::remove_all(dir);
            std::filesystem::create_directories(dir);
            policy.controller()->setCheckpointDir(dir, 0);
            tb.warmupFill();
            tb.startWorkloads();
            tb.run(msec(200));
        }
        ~Side() { std::filesystem::remove_all(dir); }
    };
    const std::string base =
        (std::filesystem::temp_directory_path() /
         ("fleetio_lane_ckpt_" + std::to_string(::getpid())))
            .string();
    Side inl(shape, nullptr, base + "_inline");
    Side pooled(shape, &workers, base + "_pooled");

    // Through the teacher phase into the first PPO update (window 140).
    for (int w = 0; w < 145; ++w) {
        inl.tb.run(shape.opts.window);
        pooled.tb.run(shape.opts.window);
        // The window's tick has just handed training to the lane. The
        // pooled side is read first, before its jobs can finish alone.
        for (VssdId id = 0; id < 2; ++id) {
            const AgentState got =
                captureAgent(*pooled.policy.controller()->agent(id));
            const AgentState want =
                captureAgent(*inl.policy.controller()->agent(id));
            ASSERT_EQ(want.bc_t, got.bc_t) << "window " << w;
            ASSERT_EQ(want.optimizer_steps, got.optimizer_steps)
                << "window " << w;
            ASSERT_TRUE(sameBytes(want.ckpt.params, got.ckpt.params))
                << "window " << w;
        }
        if (w % 20 != 19)
            continue;
        // Next window's training is out again; saving must wait for it.
        inl.tb.run(shape.opts.window);
        pooled.tb.run(shape.opts.window);
        ++w;
        ASSERT_EQ(pooled.policy.controller()->saveCheckpoints(), 2u);
        ASSERT_EQ(inl.policy.controller()->saveCheckpoints(), 2u);
        for (VssdId id = 0; id < 2; ++id) {
            rl::AgentCheckpoint a, b;
            const std::string name =
                "/agent-" + std::to_string(id) + ".ckpt";
            ASSERT_EQ(rl::CheckpointStore(inl.dir + name).load(a),
                      rl::CheckpointError::kOk);
            ASSERT_EQ(rl::CheckpointStore(pooled.dir + name).load(b),
                      rl::CheckpointError::kOk);
            ASSERT_TRUE(sameBytes(a.params, b.params)) << "window " << w;
            ASSERT_TRUE(sameBytes(a.adam_m, b.adam_m)) << "window " << w;
            ASSERT_EQ(a.shuffle_rng, b.shuffle_rng) << "window " << w;
        }
    }
    EXPECT_GT(captureAgent(*pooled.policy.controller()->agent(0)).bc_t,
              0u);
}

TEST(TrainingLane, SharedWorkersLeaveTheSimulationCore)
{
    const unsigned hw = std::thread::hardware_concurrency();
    const unsigned want = hw > 1 ? hw - 1 : 0;
    EXPECT_EQ(TrainingWorkers::shared().size(), want);
    EXPECT_EQ(&TrainingWorkers::shared(), &TrainingWorkers::shared());
}

TEST(TrainingLane, NoWorkersRunsInlineAndStartsNoThread)
{
    TrainingWorkers none(0);
    EXPECT_EQ(none.size(), 0u);
    FleetIoConfig cfg;
    FleetIoAgent agent(0, cfg, 5);
    TrainingLane lane(&none);
    lane.reserve(1);
    TrainingLane::Job &job = lane.job(0);
    job.agent = &agent;
    job.imitate = true;
    job.state.assign(cfg.stateDim(), 0.25);
    job.actions.assign(agent.mapper().spec().numHeads(), 0);
    job.value_target = 1.0;
    // Inline: each step runs inside submit(), with no wait() at all.
    // The first update comes with the minibatch-th sample.
    for (std::size_t i = 1; i < cfg.ppo.minibatch; ++i)
        lane.submit(1);
    EXPECT_EQ(agent.imitationOptimizer(), nullptr);
    lane.submit(1);
    ASSERT_NE(agent.imitationOptimizer(), nullptr);
    EXPECT_GT(agent.imitationOptimizer()->t(), 0u);
}

}  // namespace
}  // namespace fleetio
