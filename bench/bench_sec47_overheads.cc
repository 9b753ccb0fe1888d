/**
 * @file
 * §4.7 reproduction (google-benchmark): FleetIO's overhead sources —
 * RL inference per decision window (paper: 1.1 ms), periodic PPO
 * fine-tuning (paper: 51.2 ms per 10 windows), gSB creation (paper:
 * < 1 us of metadata work), and admission-control batch processing
 * (paper: 0.8 ms per 1,000 actions) — plus the model storage cost
 * (paper: 2.2 MB per vSSD) and the behaviour-cloning step, our
 * stand-in for the paper's offline pre-training and the largest
 * per-agent cost of a teacher window.
 */
#include <benchmark/benchmark.h>

#include "src/core/admission_control.h"
#include "src/core/agent.h"
#include "src/harness/testbed.h"
#include "src/virt/channel_allocator.h"

namespace fleetio {
namespace {

FleetIoConfig benchCfg()
{
    FleetIoConfig cfg;
    cfg.decision_window = msec(100);
    return cfg;
}

void
BM_RlInference(benchmark::State &state)
{
    const FleetIoConfig cfg = benchCfg();
    FleetIoAgent agent(0, cfg, 42);
    agent.setTraining(false);
    rl::Vector s(cfg.stateDim(), 0.25);
    for (auto _ : state) {
        auto action = agent.decide(s);
        benchmark::DoNotOptimize(action);
    }
    state.SetLabel("paper: 1.1 ms/window on one CPU core");
}
BENCHMARK(BM_RlInference);

void
BM_PpoFineTune(benchmark::State &state)
{
    const FleetIoConfig cfg = benchCfg();
    for (auto _ : state) {
        state.PauseTiming();
        FleetIoAgent agent(0, cfg, 43);
        Rng rng(7);
        for (int i = 0; i < 64; ++i) {
            rl::Vector s(cfg.stateDim());
            for (auto &x : s)
                x = rng.uniform(-1, 1);
            agent.decide(s);
            agent.completeTransition(rng.uniform());
        }
        rl::Vector boot(cfg.stateDim(), 0.0);
        state.ResumeTiming();
        auto stats = agent.train(boot);
        benchmark::DoNotOptimize(stats);
    }
    state.SetLabel("paper: 51.2 ms per 10 windows");
}
BENCHMARK(BM_PpoFineTune);

void
BM_BcImitate(benchmark::State &state)
{
    const FleetIoConfig cfg = benchCfg();
    FleetIoAgent agent(0, cfg, 45);
    Rng rng(8);
    const std::vector<std::size_t> actions =
        agent.mapper().encode(agent.decide(rl::Vector(cfg.stateDim())));
    auto randomState = [&] {
        rl::Vector s(cfg.stateDim());
        for (auto &x : s)
            x = rng.uniform(-1, 1);
        return s;
    };
    // A replay the size a 400-window teacher phase leaves behind.
    for (int i = 0; i < 400; ++i)
        agent.imitate(randomState(), actions, 1.0);
    const rl::Vector s = randomState();
    for (auto _ : state) {
        agent.imitate(s, actions, 1.0);
        benchmark::DoNotOptimize(agent.policy().params().rawValues().data());
        benchmark::ClobberMemory();
    }
    state.SetLabel("one teacher-window sample: 2 minibatch updates");
}
BENCHMARK(BM_BcImitate);

void
BM_GsbCreation(benchmark::State &state)
{
    TestbedOptions opts;
    Testbed tb(opts);
    const auto &geo = tb.device().geometry();
    const auto split = ChannelAllocator::equalSplit(geo, 2);
    tb.addTenant(WorkloadKind::kVdiWeb, split[0],
                 geo.totalBlocks() / 2, msec(2));
    tb.addTenant(WorkloadKind::kTeraSort, split[1],
                 geo.totalBlocks() / 2, msec(20));
    const double bw = geo.channelBandwidthMBps() * 2;
    for (auto _ : state) {
        tb.gsb().makeHarvestable(0, bw);   // create a 2-channel gSB
        tb.gsb().makeHarvestable(0, 0.0);  // destroy it (unharvested)
    }
    state.SetLabel("create+destroy pair; paper: < 1 us per creation");
}
BENCHMARK(BM_GsbCreation);

void
BM_AdmissionBatch1000(benchmark::State &state)
{
    TestbedOptions opts;
    Testbed tb(opts);
    const auto &geo = tb.device().geometry();
    const auto split = ChannelAllocator::equalSplit(geo, 2);
    tb.addTenant(WorkloadKind::kVdiWeb, split[0],
                 geo.totalBlocks() / 2, msec(2));
    tb.addTenant(WorkloadKind::kTeraSort, split[1],
                 geo.totalBlocks() / 2, msec(20));
    AdmissionControl adm(tb.gsb(), tb.eq(), msec(50));
    for (auto _ : state) {
        state.PauseTiming();
        for (int i = 0; i < 1000; ++i) {
            const bool mh = i % 2 == 0;
            adm.submit(PendingAction{
                VssdId(i % 2),
                mh ? PendingAction::Type::kMakeHarvestable
                   : PendingAction::Type::kHarvest,
                geo.channelBandwidthMBps(), 0});
        }
        state.ResumeTiming();
        adm.flush();
    }
    state.SetLabel("1000 actions/batch; paper: 0.8 ms");
}
BENCHMARK(BM_AdmissionBatch1000);

void
BM_ModelStorageCost(benchmark::State &state)
{
    const FleetIoConfig cfg = benchCfg();
    for (auto _ : state) {
        FleetIoAgent agent(0, cfg, 44);
        benchmark::DoNotOptimize(agent);
        state.counters["params"] =
            double(agent.policy().numParams());
        state.counters["bytes_fp64"] =
            double(agent.policy().numParams() * sizeof(double));
    }
    state.SetLabel("paper: 2.2 MB / 9K params per vSSD");
}
BENCHMARK(BM_ModelStorageCost);

}  // namespace
}  // namespace fleetio

BENCHMARK_MAIN();
