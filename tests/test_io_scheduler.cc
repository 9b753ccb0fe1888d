/** @file Integration tests for the I/O scheduler. */
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "src/virt/io_scheduler.h"

namespace fleetio {
namespace {

class IoSchedulerTest : public ::testing::Test
{
  protected:
    IoSchedulerTest()
        : geo_(testGeometry()), dev_(geo_, eq_), hbt_(geo_),
          vssds_(dev_, hbt_), sched_(dev_, vssds_)
    {
        a_ = &makeVssd(0, {0, 1});
        b_ = &makeVssd(1, {0, 1});  // shares channels with a_
    }

    Vssd &makeVssd(VssdId id, std::vector<ChannelId> chs)
    {
        Vssd::Config cfg;
        cfg.id = id;
        cfg.quota_blocks = geo_.blocksPerChannel();
        cfg.channels = std::move(chs);
        cfg.slo = msec(50);
        return vssds_.create(cfg);
    }

    IoRequestPtr makeReq(VssdId v, IoType type, Lpa lpa,
                         std::uint32_t npages)
    {
        IoRequestPtr req = sched_.requests().acquire();
        req->vssd = v;
        req->type = type;
        req->lpa = lpa;
        req->npages = npages;
        req->on_complete = [this](const IoRequest &, SimTime) {
            ++completed_;
        };
        return req;
    }

    SsdGeometry geo_;
    EventQueue eq_;
    FlashDevice dev_;
    HarvestedBlockTable hbt_;
    VssdManager vssds_;
    IoScheduler sched_;
    Vssd *a_ = nullptr;
    Vssd *b_ = nullptr;
    int completed_ = 0;
};

TEST_F(IoSchedulerTest, WriteThenReadRoundTrip)
{
    sched_.submit(makeReq(0, IoType::kWrite, 10, 4));
    eq_.runUntil(sec(1));
    EXPECT_EQ(completed_, 1);
    // All four pages mapped.
    for (Lpa lpa = 10; lpa < 14; ++lpa)
        EXPECT_NE(a_->ftl().lookup(lpa), kNoPpa);

    sched_.submit(makeReq(0, IoType::kRead, 10, 4));
    eq_.runUntil(sec(2));
    EXPECT_EQ(completed_, 2);
    EXPECT_EQ(a_->latency().windowCount(), 2u);
    EXPECT_EQ(a_->bandwidth().windowRequests(), 2u);
    EXPECT_EQ(a_->bandwidth().windowBytes(),
              2ull * 4 * geo_.page_size);
}

TEST_F(IoSchedulerTest, ReadOfUnwrittenPageCompletesQuickly)
{
    sched_.submit(makeReq(0, IoType::kRead, 500, 1));
    eq_.runUntil(msec(1));
    EXPECT_EQ(completed_, 1);
    // Zero-fill read costs one chip-read latency, no bus time.
    EXPECT_EQ(a_->latency().windowQuantile(1.0), geo_.read_latency);
}

TEST_F(IoSchedulerTest, LatencyMeasuredAtLastPage)
{
    sched_.submit(makeReq(0, IoType::kWrite, 0, 8));
    eq_.runUntil(sec(1));
    // 8-page write costs at least one transfer+program.
    EXPECT_GE(a_->latency().windowQuantile(1.0),
              geo_.pageTransferTime() + geo_.program_latency);
}

TEST_F(IoSchedulerTest, PriorityJumpsTheSharedQueue)
{
    // Saturate the shared channels with vSSD 0 writes at medium.
    for (int i = 0; i < 30; ++i)
        sched_.submit(makeReq(0, IoType::kWrite, Lpa(i) * 8, 8));
    // One high-priority read from vSSD 1 (must first write data).
    sched_.submit(makeReq(1, IoType::kWrite, 0, 1));
    eq_.runUntil(sec(5));
    b_->rollWindow();  // phase-1 latency must not pollute the check
    const int base = completed_;
    for (int i = 0; i < 30; ++i)
        sched_.submit(makeReq(0, IoType::kWrite, Lpa(i) * 8, 8));
    b_->setPriority(Priority::kHigh);
    sched_.submit(makeReq(1, IoType::kRead, 0, 1));
    // The high-priority read completes before the bulk writes drain.
    eq_.runUntil(eq_.now() + msec(20));
    EXPECT_GE(completed_, base + 1);
    const SimTime hp_lat = b_->latency().windowQuantile(1.0);
    EXPECT_LT(hp_lat, msec(10));
}

TEST_F(IoSchedulerTest, StrideModeSharesServiceFairly)
{
    sched_.usePriority(false);
    sched_.useStride(true);
    sched_.setTickets(0, 1.0);
    sched_.setTickets(1, 1.0);
    for (int i = 0; i < 50; ++i) {
        sched_.submit(makeReq(0, IoType::kWrite, Lpa(i) * 4, 4));
        sched_.submit(makeReq(1, IoType::kWrite, Lpa(i) * 4, 4));
    }
    eq_.runUntil(sec(2));
    // Both tenants progress at a similar rate.
    const auto ba = a_->bandwidth().windowBytes();
    const auto bb = b_->bandwidth().windowBytes();
    EXPECT_NEAR(double(ba), double(bb), double(ba) * 0.2);
}

TEST_F(IoSchedulerTest, TokenBucketThrottlesThroughput)
{
    // Limit vSSD 0 to ~8 MB/s; offer much more.
    sched_.setRateLimit(0, 8.0 * 1024 * 1024, 1.0 * 1024 * 1024);
    for (int i = 0; i < 200; ++i)
        sched_.submit(makeReq(0, IoType::kWrite, Lpa(i) * 4, 4));
    eq_.runUntil(sec(2));
    const double mbps = a_->bandwidth().windowMBps(sec(2));
    EXPECT_LT(mbps, 10.0);
    EXPECT_GT(mbps, 4.0);
}

TEST_F(IoSchedulerTest, RemovingRateLimitRestoresThroughput)
{
    // With a 1 MB/s limit, 3.2 MB of writes would need > 3 s; after
    // removing the limit they finish almost immediately.
    sched_.setRateLimit(0, 1024.0 * 1024, 64 * 1024);
    sched_.setRateLimit(0, 0.0, 0.0);  // remove
    for (int i = 0; i < 50; ++i)
        sched_.submit(makeReq(0, IoType::kWrite, Lpa(i) * 4, 4));
    eq_.runUntil(msec(500));
    EXPECT_EQ(completed_, 50);
}

TEST_F(IoSchedulerTest, QueueDelayTracked)
{
    for (int i = 0; i < 40; ++i)
        sched_.submit(makeReq(0, IoType::kWrite, Lpa(i) * 8, 8));
    // Before the device drains, the virtual queue shows depth.
    EXPECT_GT(a_->queue().depth(), 0u);
    eq_.runUntil(sec(5));
    EXPECT_EQ(a_->queue().depth(), 0u);
    EXPECT_GT(a_->queue().windowMeanWaitNs(), 0.0);
}

TEST_F(IoSchedulerTest, BlockedWritesRetryAfterCapacityFrees)
{
    // Steal every free block on the whole device so placement fails
    // physically (writes overflow to other channels otherwise).
    std::vector<std::tuple<ChannelId, ChipId, BlockId>> stolen;
    for (ChannelId ch = 0; ch < geo_.num_channels; ++ch) {
        ChipId c;
        BlockId b;
        while (dev_.allocateBlock(ch, 99, c, b))
            stolen.emplace_back(ch, c, b);
    }
    sched_.submit(makeReq(0, IoType::kWrite, 0, 1));
    EXPECT_GT(sched_.blockedWrites(), 0u);

    // Return the blocks; the retry timer picks the write back up.
    for (const auto &[ch, c, b] : stolen)
        dev_.chip(ch, c).releaseBlock(b);
    eq_.runUntil(eq_.now() + msec(50));
    EXPECT_EQ(sched_.blockedWrites(), 0u);
    eq_.runUntil(eq_.now() + sec(1));
    EXPECT_EQ(completed_, 1);
}

TEST_F(IoSchedulerTest, DispatchCountsGrow)
{
    sched_.submit(makeReq(0, IoType::kWrite, 0, 4));
    eq_.runUntil(sec(1));
    EXPECT_EQ(sched_.dispatchedOps(), 4u);
    EXPECT_EQ(sched_.queuedOps(), 0u);
}

}  // namespace
}  // namespace fleetio
