/** @file Pooled I/O requests: recycling, crash teardown, testbed teardown. */
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/harness/testbed.h"
#include "src/virt/channel_allocator.h"
#include "src/virt/io_scheduler.h"

namespace fleetio {
namespace {

TEST(IoRequestPool, HandlesShareOneRequestAndRecycleIt)
{
    IoRequestPool pool;
    IoRequest *first = nullptr;
    {
        IoRequestPtr a = pool.acquire();
        a->npages = 7;
        a->lpa = 42;
        first = a.get();
        IoRequestPtr b = a;
        IoRequestPtr c = std::move(b);
        EXPECT_FALSE(b);
        EXPECT_EQ(c.get(), first);
        EXPECT_EQ(pool.live(), 1u);
        a = IoRequestPtr();
        EXPECT_EQ(pool.live(), 1u);  // c still holds it
    }
    EXPECT_EQ(pool.live(), 0u);
    EXPECT_EQ(pool.highWater(), 1u);
    // The freed slot comes back first, value-initialised.
    IoRequestPtr again = pool.acquire();
    EXPECT_EQ(again.get(), first);
    EXPECT_EQ(again->npages, 1u);
    EXPECT_EQ(again->lpa, 0u);
    EXPECT_FALSE(again->on_complete);
}

/** A bare scheduler stack whose requests come from its own pool. */
class IoRequestPoolStack : public ::testing::Test
{
  protected:
    IoRequestPoolStack()
        : geo_(testGeometry()), dev_(geo_, eq_), hbt_(geo_),
          vssds_(dev_, hbt_), sched_(dev_, vssds_, pool_)
    {
        Vssd::Config cfg;
        cfg.id = 0;
        cfg.quota_blocks = geo_.blocksPerChannel() * 4;
        cfg.channels = {0, 1, 2, 3};
        cfg.slo = msec(50);
        vssds_.create(cfg);
    }

    /** Submit a write of @p npages at @p lpa; counts completions. */
    void submit(Lpa lpa, std::uint32_t npages)
    {
        IoRequestPtr req = sched_.requests().acquire();
        req->vssd = 0;
        req->type = IoType::kWrite;
        req->lpa = lpa;
        req->npages = npages;
        req->on_complete = [this](const IoRequest &, SimTime) {
            ++completed_;
        };
        sched_.submit(std::move(req));
        ++submitted_;
        max_in_flight_ = std::max(max_in_flight_, submitted_ - completed_);
    }

    IoRequestPool pool_;  // first: outlives every handle below
    SsdGeometry geo_;
    EventQueue eq_;
    FlashDevice dev_;
    HarvestedBlockTable hbt_;
    VssdManager vssds_;
    IoScheduler sched_;
    std::uint64_t submitted_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t max_in_flight_ = 0;
};

TEST_F(IoRequestPoolStack, HighWaterMarkEqualsMostRequestsInFlight)
{
    // Staggered arrivals: each submit runs from its own event, so the
    // requests live at a submit are exactly those in flight.
    for (int i = 0; i < 300; ++i) {
        const SimTime at = usec(20) * SimTime(i % 50) +
                           msec(5) * SimTime(i / 50);
        eq_.scheduleAt(at, [this, i]() {
            submit(Lpa(i * 4), 1 + std::uint32_t(i % 4));
        });
    }
    eq_.runAll();
    ASSERT_EQ(completed_, submitted_);
    EXPECT_GT(max_in_flight_, 1u);
    EXPECT_EQ(pool_.highWater(), max_in_flight_);
    EXPECT_EQ(pool_.live(), 0u);

    // A second, smaller wave reuses the slots: no growth.
    const std::size_t cap = pool_.capacity();
    for (int i = 0; i < 20; ++i)
        submit(Lpa(i), 1);
    eq_.runAll();
    EXPECT_EQ(pool_.capacity(), cap);
    EXPECT_EQ(pool_.live(), 0u);
}

TEST_F(IoRequestPoolStack, CrashResetAndClearPendingReturnEveryRequest)
{
    for (int i = 0; i < 64; ++i)
        submit(Lpa(i * 8), 4);
    eq_.runUntil(usec(300));
    ASSERT_LT(completed_, submitted_);
    EXPECT_GT(pool_.live(), 0u);
    // Power loss: queued page ops go with the scheduler's reset, armed
    // completions with the event queue.
    sched_.crashReset();
    EXPECT_GT(pool_.live(), 0u);
    eq_.clearPending();
    EXPECT_EQ(pool_.live(), 0u);
}

TEST(IoRequestPool, TestbedTeardownLeavesNoRequestLive)
{
    IoRequestPool &pool = IoRequestPool::local();
    const std::size_t before = pool.live();
    {
        TestbedOptions opts;
        opts.geo = testGeometry();
        Testbed tb(opts);
        const auto split = ChannelAllocator::equalSplit(opts.geo, 2);
        const std::uint64_t quota = opts.geo.totalBlocks() / 2;
        tb.addTenant(WorkloadKind::kVdiWeb, split[0], quota, msec(2));
        tb.addTenant(WorkloadKind::kTeraSort, split[1], quota, msec(30));
        tb.warmupFill();
        tb.startWorkloads();
        tb.run(msec(100));
        EXPECT_GT(pool.live(), before);  // requests in flight
    }
    EXPECT_EQ(pool.live(), before);
}

}  // namespace
}  // namespace fleetio
