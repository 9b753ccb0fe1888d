/** @file Tests for the latency-attribution hub: stage arithmetic,
 *  scope nesting, blame conservation, verdicts, and the JSON export. */
#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/attribution.h"
#include "src/obs/drift.h"
#include "src/obs/probe.h"
#include "src/sim/types.h"

namespace fleetio {
namespace {

using obs::AttributionHub;
using obs::HarvestNote;
using obs::SegKind;
using obs::SloVerdict;
using obs::Stage;
using obs::VerdictCause;

AttributionHub::Config
smallConfig()
{
    AttributionHub::Config cfg;
    cfg.channels = 2;
    cfg.chips = 2;
    cfg.top_k = 4;
    cfg.segment_ring = 8;
    return cfg;
}

/** Stage sum of an inline record. */
SimTime
stageSum(const std::array<SimTime, obs::kNumStages> &st)
{
    SimTime s = 0;
    for (SimTime v : st)
        s += v;
    return s;
}

TEST(Attribution, UncontendedReadDecomposesExactly)
{
    AttributionHub hub(smallConfig());
    hub.setSlo(0, msec(1));
    std::array<SimTime, obs::kNumStages> st{};
    SimTime hint = 0;
    hub.resetRequest(st.data(), &hint);

    // Idle device: chip_free/bus_free in the past, no waits at all.
    hub.pushContext(0, SegKind::kHostOp);
    hub.noteRead(/*ch=*/0, /*chip=*/0, /*now=*/100, /*chip_free=*/0,
                 /*read_done=*/150, /*retry_extra=*/0, /*bus_free=*/0,
                 /*complete=*/160);
    hub.popContext();
    hub.finishHostPage(/*gc_stall=*/5, /*queue_wait=*/10, st.data(),
                       &hint);

    EXPECT_EQ(st[std::size_t(Stage::kGcStall)], 5);
    EXPECT_EQ(st[std::size_t(Stage::kQueueWait)], 10);
    EXPECT_EQ(st[std::size_t(Stage::kChipWait)], 0);
    EXPECT_EQ(st[std::size_t(Stage::kChipService)], 50);
    EXPECT_EQ(st[std::size_t(Stage::kBusWait)], 0);
    EXPECT_EQ(st[std::size_t(Stage::kTransfer)], 10);
    EXPECT_EQ(hint, 160);

    // submit chosen so latency == stage sum exactly.
    hub.recordRequest(0, false, 1, /*submit=*/160 - stageSum(st),
                      /*complete=*/160, st.data());
    EXPECT_EQ(hub.requests(), 1u);
    EXPECT_EQ(hub.sumMismatches(), 0u);
}

TEST(Attribution, NestedGcScopeDoesNotClobberHostScratch)
{
    AttributionHub hub(smallConfig());
    hub.setSlo(0, msec(1));
    hub.setSlo(1, msec(1));
    std::array<SimTime, obs::kNumStages> st{};
    SimTime hint = 0;
    hub.resetRequest(st.data(), &hint);

    // A host read fills the scratch...
    hub.pushContext(0, SegKind::kHostOp);
    hub.noteRead(0, 0, 100, 0, 150, 0, 0, 160);
    // ...then GC re-enters the device *inside* the host scope (the
    // GC-stall-inside-channel-wait shape): its emits must record
    // occupancy but leave the host page's pending breakdown intact.
    hub.pushContext(1, SegKind::kGcOp);
    EXPECT_TRUE(hub.armed());
    hub.noteProgram(0, 0, 160, 0, 170, 0, 270);
    hub.noteErase(0, 0, 270, 270, 1270);
    hub.popContext();
    hub.popContext();
    EXPECT_FALSE(hub.armed());

    hub.finishHostPage(0, 0, st.data(), &hint);
    EXPECT_EQ(st[std::size_t(Stage::kChipService)], 50);
    EXPECT_EQ(st[std::size_t(Stage::kTransfer)], 10);
    EXPECT_EQ(hint, 160);
    // The GC ops were not host pages: no stage time landed on t1.
    for (std::size_t s = 0; s < obs::kNumStages; ++s)
        EXPECT_EQ(hub.stageTotal(1, Stage(s)), 0u);
}

TEST(Attribution, GcOnlyEmitsLeaveNoPendingHostPage)
{
    AttributionHub hub(smallConfig());
    hub.setSlo(0, msec(1));
    std::array<SimTime, obs::kNumStages> st{};
    SimTime hint = 0;
    hub.resetRequest(st.data(), &hint);

    hub.pushContext(0, SegKind::kGcOp);
    hub.noteRead(0, 0, 0, 0, 50, 0, 0, 60);
    hub.popContext();
    hub.finishHostPage(3, 4, st.data(), &hint);

    // No armed host emit happened: finishHostPage is a no-op.
    EXPECT_EQ(stageSum(st), 0);
    EXPECT_EQ(hint, 0);
    EXPECT_EQ(hub.stageTotal(0, Stage::kGcStall), 0u);
}

TEST(Attribution, ChipWaitUnderGcBecomesInterferenceAndBlame)
{
    AttributionHub hub(smallConfig());
    hub.setSlo(0, msec(1));
    hub.setSlo(1, msec(1));

    // t1's GC program occupies chip 0 over [10, 110).
    hub.pushContext(1, SegKind::kGcOp);
    hub.noteProgram(0, 0, 0, 0, 10, 0, 110);
    hub.popContext();

    // t0's read arrives at 20 and must wait for the chip until 110.
    std::array<SimTime, obs::kNumStages> st{};
    SimTime hint = 0;
    hub.resetRequest(st.data(), &hint);
    hub.pushContext(0, SegKind::kHostOp);
    hub.noteRead(0, 0, /*now=*/20, /*chip_free=*/110, /*read_done=*/160,
                 0, /*bus_free=*/0, /*complete=*/170);
    hub.popContext();
    hub.finishHostPage(0, 0, st.data(), &hint);

    EXPECT_EQ(st[std::size_t(Stage::kChipWait)], 0);
    EXPECT_EQ(st[std::size_t(Stage::kGcInterference)], 90);
    EXPECT_EQ(st[std::size_t(Stage::kChipService)], 50);
    EXPECT_EQ(st[std::size_t(Stage::kTransfer)], 10);
    EXPECT_EQ(hub.blame(0, 1), 90u);
    EXPECT_EQ(hub.blame(0, 0), 0u);
    EXPECT_EQ(hub.inflicted(1), 90u);
    EXPECT_EQ(hub.inflicted(0), 0u);

    hub.recordRequest(0, false, 7, 170 - stageSum(st), 170, st.data());
    EXPECT_EQ(hub.sumMismatches(), 0u);
}

TEST(Attribution, ForeignHarvestWaitBecomesHarvestInterference)
{
    AttributionHub hub(smallConfig());
    hub.setSlo(0, msec(1));
    hub.setSlo(1, msec(1));

    // t1 harvest-writes onto channel 0's bus over [0, 40).
    hub.pushContext(1, SegKind::kHarvestOp);
    hub.noteProgram(0, 1, 0, 0, 40, 0, 140);
    hub.popContext();

    // t0's read finishes the array at 10 but the bus is busy to 40.
    std::array<SimTime, obs::kNumStages> st{};
    SimTime hint = 0;
    hub.resetRequest(st.data(), &hint);
    hub.pushContext(0, SegKind::kHostOp);
    hub.noteRead(0, 0, 0, 0, /*read_done=*/10, 0, /*bus_free=*/40,
                 /*complete=*/50);
    hub.popContext();
    hub.finishHostPage(0, 0, st.data(), &hint);

    EXPECT_EQ(st[std::size_t(Stage::kBusWait)], 0);
    EXPECT_EQ(st[std::size_t(Stage::kHarvestInterference)], 30);
    EXPECT_EQ(hub.blame(0, 1), 30u);
    EXPECT_EQ(hub.inflicted(1), 30u);
}

TEST(Attribution, EvictedHistorySelfBlamesKeepingTotalsExact)
{
    // Ring of 1 segment: the second push evicts the first.
    AttributionHub::Config cfg = smallConfig();
    cfg.segment_ring = 1;
    AttributionHub hub(cfg);
    hub.setSlo(0, msec(1));
    hub.setSlo(1, msec(1));

    hub.pushContext(1, SegKind::kGcOp);
    hub.noteProgram(0, 0, 0, 0, 10, 0, 110);   // chip seg [10,110)
    hub.noteProgram(1, 1, 0, 0, 10, 0, 110);   // evicts nothing (chip 1)
    hub.noteErase(0, 0, 110, 110, 120);        // chip 0 seg [110,120)
    hub.popContext();

    // The erase segment evicted the program segment from chip 0's
    // ring; a wait over the program's span now self-attributes.
    std::array<SimTime, obs::kNumStages> st{};
    SimTime hint = 0;
    hub.resetRequest(st.data(), &hint);
    hub.pushContext(0, SegKind::kHostOp);
    hub.noteRead(0, 0, /*now=*/20, /*chip_free=*/120, /*read_done=*/170,
                 0, 0, /*complete=*/180);
    hub.popContext();
    hub.finishHostPage(0, 0, st.data(), &hint);

    // [20,110) is evicted history (self), [110,120) is the erase (GC).
    EXPECT_EQ(st[std::size_t(Stage::kGcInterference)], 10);
    EXPECT_EQ(st[std::size_t(Stage::kChipWait)], 90);
    EXPECT_EQ(hub.blame(0, 0), 90u);
    EXPECT_EQ(hub.blame(0, 1), 10u);
    EXPECT_EQ(stageSum(st), 180 - 20);
}

/** Replays a small three-tenant contention scenario and checks the
 *  ledger conservation laws the DESIGN §13 contract promises. */
TEST(Attribution, BlameRowAndColumnConservation)
{
    AttributionHub hub(smallConfig());
    for (VssdId id = 0; id < 3; ++id)
        hub.setSlo(id, msec(1));

    std::array<SimTime, obs::kNumStages> st{};
    SimTime hint = 0;

    // t1 GC holds chip 0 over [0,100).
    hub.pushContext(1, SegKind::kGcOp);
    hub.noteProgram(0, 0, 0, 0, 0, 0, 100);
    hub.popContext();

    // t2 host write holds bus 0 over [10,30), chip 1 over [30,130).
    hub.resetRequest(st.data(), &hint);
    hub.pushContext(2, SegKind::kHostOp);
    hub.noteProgram(0, 1, 10, 0, 30, 0, 130);
    hub.popContext();
    hub.finishHostPage(0, 7, st.data(), &hint);
    hub.recordRequest(2, true, 1, 130 - stageSum(st), 130, st.data());

    // t0 read waits on t1's GC (chip 0) and then idles on the bus.
    hub.resetRequest(st.data(), &hint);
    hub.pushContext(0, SegKind::kHostOp);
    hub.noteRead(0, 0, /*now=*/10, /*chip_free=*/100, /*read_done=*/150,
                 /*retry_extra=*/3, /*bus_free=*/160, /*complete=*/170);
    hub.popContext();
    hub.finishHostPage(/*gc_stall=*/4, /*queue_wait=*/6, st.data(),
                       &hint);
    hub.recordRequest(0, false, 2, 170 - stageSum(st), 170, st.data());

    EXPECT_EQ(hub.sumMismatches(), 0u);
    // A deliberately wrong submit is the one way to mismatch.
    hub.recordRequest(0, false, 3, 0, 1, st.data());
    EXPECT_EQ(hub.sumMismatches(), 1u);

    // Row conservation: every victim's blame row sums to exactly its
    // wait-stage time.
    for (VssdId v = 0; v < 3; ++v) {
        std::uint64_t row = 0;
        for (VssdId c = 0; c < 3; ++c)
            row += hub.blame(v, c);
        std::uint64_t wait = 0;
        for (std::size_t s = 0; s < obs::kNumStages; ++s)
            if (obs::isWaitStage(Stage(s)))
                wait += hub.stageTotal(v, Stage(s));
        EXPECT_EQ(row, wait) << "victim " << int(v);
    }

    // Column conservation: inflicted() is exactly the off-diagonal
    // column total.
    for (VssdId c = 0; c < 3; ++c) {
        std::uint64_t col = 0;
        for (VssdId v = 0; v < 3; ++v)
            if (v != c)
                col += hub.blame(v, c);
        EXPECT_EQ(hub.inflicted(c), col) << "culprit " << int(c);
    }
}

TEST(Attribution, TopKKeepsStrictlySlowestRequests)
{
    AttributionHub::Config cfg = smallConfig();
    cfg.top_k = 2;
    AttributionHub hub(cfg);
    hub.setSlo(0, kTimeNever);

    std::array<SimTime, obs::kNumStages> st{};
    st[std::size_t(Stage::kChipService)] = 10;
    hub.recordRequest(0, false, 1, 0, 10, st.data());
    st[std::size_t(Stage::kChipService)] = 30;
    hub.recordRequest(0, false, 2, 0, 30, st.data());
    st[std::size_t(Stage::kChipService)] = 20;
    hub.recordRequest(0, false, 3, 0, 20, st.data());
    // A tie with the current minimum must not displace it.
    hub.recordRequest(0, false, 4, 0, 20, st.data());

    const std::vector<obs::SlowRequest> slow = hub.topSlow();
    ASSERT_EQ(slow.size(), 2u);
    EXPECT_EQ(slow[0].latency, 30);
    EXPECT_EQ(slow[0].trace_id, 2u);
    EXPECT_EQ(slow[1].latency, 20);
    EXPECT_EQ(slow[1].trace_id, 3u);
}

/** One violating request whose breakdown is dominated by @p stage. */
void
violateWith(AttributionHub &hub, VssdId id, Stage stage)
{
    std::array<SimTime, obs::kNumStages> st{};
    SimTime hint = 0;
    hub.resetRequest(st.data(), &hint);
    hub.pushContext(id, SegKind::kHostOp);
    if (stage == Stage::kReadRetry) {
        // Retry surcharge is 75% of the array time.
        hub.noteRead(0, 0, 0, 0, 2000000, 1500000, 0, 2000100);
    } else {
        hub.noteRead(0, 0, 0, 0, 2000000, 0, 0, 2000100);
    }
    hub.popContext();
    hub.finishHostPage(0, 0, st.data(), &hint);
    hub.recordRequest(id, false, 1, 0, 2000100, st.data());
}

TEST(Attribution, VerdictTreePicksTierRetrySelfAndNeighbor)
{
    AttributionHub hub(smallConfig());
    hub.setSlo(0, msec(1));
    hub.setSlo(1, msec(1));

    // Window 0: plain self-inflicted violation.
    violateWith(hub, 0, Stage::kChipService);
    hub.rollWindow(0, 0, {0, 0});
    // Window 1: same shape, but the tenant sits in a degradation tier.
    violateWith(hub, 0, Stage::kChipService);
    hub.rollWindow(0, 1, {2, 0});
    // Window 2: read-retry dominated.
    violateWith(hub, 0, Stage::kReadRetry);
    hub.rollWindow(0, 2, {0, 0});
    // Window 3: neighbor GC dominated — t1 occupies the chip first.
    hub.pushContext(1, SegKind::kGcOp);
    hub.noteProgram(0, 0, 0, 0, 0, 0, 1900000);
    hub.popContext();
    std::array<SimTime, obs::kNumStages> st{};
    SimTime hint = 0;
    hub.resetRequest(st.data(), &hint);
    hub.pushContext(0, SegKind::kHostOp);
    hub.noteRead(0, 0, 0, /*chip_free=*/1900000, /*read_done=*/2000000,
                 0, 0, /*complete=*/2000100);
    hub.popContext();
    hub.finishHostPage(0, 0, st.data(), &hint);
    hub.recordRequest(0, false, 9, 0, 2000100, st.data());
    hub.rollWindow(0, 3, {0, 0});

    ASSERT_EQ(hub.verdicts().size(), 4u);
    EXPECT_EQ(hub.verdicts()[0].cause, VerdictCause::kSelfLoad);
    EXPECT_EQ(hub.verdicts()[1].cause, VerdictCause::kDegradationTier);
    EXPECT_EQ(hub.verdicts()[2].cause, VerdictCause::kFaultRetry);
    EXPECT_EQ(hub.verdicts()[3].cause, VerdictCause::kNeighbor);
    EXPECT_EQ(hub.verdicts()[3].culprit, VssdId(1));
    EXPECT_EQ(hub.verdictCount(VerdictCause::kSelfLoad), 1u);
    EXPECT_EQ(hub.verdictCount(VerdictCause::kNeighbor), 1u);
}

TEST(Attribution, CrashResetDropsLedgersButKeepsTotals)
{
    AttributionHub hub(smallConfig());
    hub.setSlo(0, msec(1));
    hub.setSlo(1, msec(1));

    hub.pushContext(1, SegKind::kGcOp);
    hub.noteProgram(0, 0, 0, 0, 0, 0, 100);
    hub.popContext();
    hub.crashReset();

    // After the reset the old occupancy is gone: the same wait that
    // would have been GC interference now self-attributes.
    std::array<SimTime, obs::kNumStages> st{};
    SimTime hint = 0;
    hub.resetRequest(st.data(), &hint);
    hub.pushContext(0, SegKind::kHostOp);
    hub.noteRead(0, 0, 10, 100, 150, 0, 0, 160);
    hub.popContext();
    hub.finishHostPage(0, 0, st.data(), &hint);

    EXPECT_EQ(st[std::size_t(Stage::kGcInterference)], 0);
    EXPECT_EQ(st[std::size_t(Stage::kChipWait)], 90);
    EXPECT_EQ(hub.blame(0, 1), 0u);
    EXPECT_EQ(hub.blame(0, 0), 90u);
}

TEST(Attribution, MarkBaselineClearsAccumulatedResults)
{
    AttributionHub hub(smallConfig());
    hub.setSlo(0, usec(1));
    violateWith(hub, 0, Stage::kChipService);
    hub.rollWindow(0, 0, {0});
    ASSERT_EQ(hub.requests(), 1u);
    ASSERT_EQ(hub.verdicts().size(), 1u);

    hub.markBaseline();
    EXPECT_EQ(hub.requests(), 0u);
    EXPECT_EQ(hub.violations(), 0u);
    EXPECT_EQ(hub.verdicts().size(), 0u);
    EXPECT_EQ(hub.topSlow().size(), 0u);
    EXPECT_EQ(hub.stageTotal(0, Stage::kChipService), 0u);
    EXPECT_EQ(hub.blame(0, 0), 0u);
}

TEST(Attribution, WriteJsonEmitsSchemaAndHarvestNotes)
{
    AttributionHub hub(smallConfig());
    hub.setSlo(0, msec(1));
    violateWith(hub, 0, Stage::kChipService);
    hub.noteHarvest(0, HarvestNote::kCreated);
    hub.noteHarvest(0, HarvestNote::kRevoked);
    hub.rollWindow(0, 0, {0});
    EXPECT_EQ(hub.harvestNotes(0, HarvestNote::kCreated), 1u);
    EXPECT_EQ(hub.harvestNotes(0, HarvestNote::kRevoked), 1u);

    obs::DriftMonitor drift;
    std::ostringstream os;
    hub.writeJson(os, &drift);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"fleetio-attribution-v1\""), std::string::npos);
    EXPECT_NE(json.find("\"gc_stall\""), std::string::npos);
    EXPECT_NE(json.find("\"blame_ns\""), std::string::npos);
    EXPECT_NE(json.find("\"verdicts\""), std::string::npos);
    EXPECT_NE(json.find("\"revoked\":1"), std::string::npos);
    EXPECT_NE(json.find("\"drift\""), std::string::npos);
}

TEST(Attribution, MacrosCompileToNothingWithoutAHub)
{
    // The null-guard macros must evaluate the probe once and skip the
    // call entirely on nullptr — this is the byte-identity contract's
    // runtime half. A probe without a hub drops attribution events.
    obs::Probe *null_probe = nullptr;
    FLEETIO_PROBE(null_probe,
                  gsbEvent(0, obs::TraceEventType::kGsbHarvest, 0, 1, 2));
    {
        FLEETIO_PROBE_SCOPE(null_probe, 0, SegKind::kGcOp);
    }
    obs::Probe no_hub;
    FLEETIO_PROBE(&no_hub,
                  gsbEvent(0, obs::TraceEventType::kGsbHarvest, 0, 1, 2));
    {
        FLEETIO_PROBE_SCOPE(&no_hub, 0, SegKind::kGcOp);
    }
    EXPECT_FALSE(no_hub.active());
}

}  // namespace
}  // namespace fleetio
