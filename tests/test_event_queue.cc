/** @file Unit tests for the discrete-event queue. */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/rng.h"

namespace fleetio {
namespace {

TEST(EventQueue, StartsAtTimeZeroAndEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.nextEventTime(), kTimeNever);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, DispatchesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(usec(30), [&] { order.push_back(3); });
    eq.scheduleAt(usec(10), [&] { order.push_back(1); });
    eq.scheduleAt(usec(20), [&] { order.push_back(2); });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), usec(30));
}

TEST(EventQueue, FifoWithinSameTimestamp)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        eq.scheduleAt(usec(5), [&order, i] { order.push_back(i); });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, SchedulingInThePastClampsToNow)
{
    EventQueue eq;
    eq.scheduleAt(usec(100), [] {});
    eq.runAll();
    ASSERT_EQ(eq.now(), usec(100));
    bool fired = false;
    eq.scheduleAt(usec(50), [&] { fired = true; });
    EXPECT_EQ(eq.nextEventTime(), usec(100));
    eq.runAll();
    EXPECT_TRUE(fired);
    EXPECT_EQ(eq.now(), usec(100));
}

TEST(EventQueue, RunUntilStopsAtHorizonAndAdvancesClock)
{
    EventQueue eq;
    int fired = 0;
    eq.scheduleAt(usec(10), [&] { ++fired; });
    eq.scheduleAt(usec(20), [&] { ++fired; });
    eq.scheduleAt(usec(30), [&] { ++fired; });
    const auto n = eq.runUntil(usec(20));
    EXPECT_EQ(n, 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), usec(20));
    EXPECT_EQ(eq.pending(), 1u);
}

TEST(EventQueue, RunUntilAdvancesClockEvenWithoutEvents)
{
    EventQueue eq;
    eq.runUntil(msec(5));
    EXPECT_EQ(eq.now(), msec(5));
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int count = 0;
    std::function<void()> chain = [&]() {
        if (++count < 10)
            eq.scheduleAfter(usec(1), chain);
    };
    eq.scheduleAfter(usec(1), chain);
    eq.runAll();
    EXPECT_EQ(count, 10);
    EXPECT_EQ(eq.now(), usec(10));
    EXPECT_EQ(eq.dispatched(), 10u);
}

TEST(EventQueue, ScheduleAfterIsRelativeToNow)
{
    EventQueue eq;
    SimTime observed = 0;
    eq.scheduleAt(msec(1), [&] {
        eq.scheduleAfter(usec(500), [&] { observed = eq.now(); });
    });
    eq.runAll();
    EXPECT_EQ(observed, msec(1) + usec(500));
}

TEST(EventQueue, AcceptsMoveOnlyCaptures)
{
    EventQueue eq;
    auto box = std::make_unique<int>(41);
    int seen = 0;
    eq.scheduleAt(usec(1),
                  [&seen, b = std::move(box)]() { seen = *b + 1; });
    eq.runAll();
    EXPECT_EQ(seen, 42);
}

TEST(EventQueue, LargeCapturesFallBackToHeapAndStillRun)
{
    // A capture larger than the inline buffer must box, not truncate.
    static_assert(sizeof(std::array<std::uint64_t, 40>) >
                  EventQueue::kInlineCallbackBytes);
    EventQueue eq;
    std::array<std::uint64_t, 40> big{};
    big.front() = 7;
    big.back() = 35;
    std::uint64_t sum = 0;
    eq.scheduleAt(usec(1),
                  [&sum, big]() { sum = big.front() + big.back(); });
    eq.runAll();
    EXPECT_EQ(sum, 42u);
}

TEST(EventQueue, FifoWithinTimestampAcrossCaptureSizes)
{
    // Insertion order must hold even when inline and heap-boxed
    // callbacks interleave at one timestamp.
    EventQueue eq;
    std::vector<int> order;
    std::array<std::uint64_t, 40> big{};
    for (int i = 0; i < 6; ++i) {
        if (i % 2 == 0) {
            eq.scheduleAt(usec(5), [&order, i] { order.push_back(i); });
        } else {
            eq.scheduleAt(usec(5),
                          [&order, i, big] { order.push_back(i); });
        }
    }
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(EventQueue, NullCallbacksDispatchAsNoOps)
{
    // The device paths schedule raw (possibly-null) callbacks; a null
    // event must advance the clock and count without crashing.
    EventQueue eq;
    eq.scheduleAt(usec(3), EventQueue::Callback());
    EXPECT_EQ(eq.pending(), 1u);
    eq.runAll();
    EXPECT_EQ(eq.now(), usec(3));
    EXPECT_EQ(eq.dispatched(), 1u);
}

TEST(InlineFunction, ConvertingConstructorPreservesNull)
{
    // A smaller-capacity null callable widened into a larger one must
    // stay null (the device hands null completions to the queue).
    InlineFunction<void(), 24> small;
    EXPECT_FALSE(small);
    EventQueue::Callback widened(std::move(small));
    EXPECT_FALSE(widened);

    InlineFunction<void(), 24> set([] {});
    EventQueue::Callback widened_set(std::move(set));
    EXPECT_TRUE(widened_set);
}

TEST(InlineFunction, MoveTransfersOwnershipOnce)
{
    int calls = 0;
    InlineFunction<void(), 32> a([&calls] { ++calls; });
    InlineFunction<void(), 32> b(std::move(a));
    EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): null-state check
    ASSERT_TRUE(b);
    b();
    EXPECT_EQ(calls, 1);

    // Heap-boxed case: destructor of the box runs exactly once.
    auto token = std::make_shared<int>(0);
    std::weak_ptr<int> watch = token;
    {
        std::array<std::uint64_t, 40> big{};
        InlineFunction<void(), 32> c(
            [t = std::move(token), big]() { ++*t; });
        InlineFunction<void(), 32> d(std::move(c));
        d();
        EXPECT_FALSE(watch.expired());
    }
    EXPECT_TRUE(watch.expired());
}

// --- Differential oracle -------------------------------------------------

/**
 * Deliberately naive reference queue: every pending event in an ordered
 * map keyed by (when, seq), with the same clamping, halting and horizon
 * rules as EventQueue spelled out directly.
 */
class ReferenceQueue
{
  public:
    SimTime now() const { return now_; }
    std::size_t pending() const { return events_.size(); }
    std::uint64_t dispatched() const { return dispatched_; }

    SimTime nextEventTime() const
    {
        return events_.empty() ? kTimeNever : events_.begin()->first.first;
    }

    void scheduleAt(SimTime when, std::function<void()> cb)
    {
        events_.emplace(std::make_pair(std::max(when, now_), seq_++),
                        std::move(cb));
    }

    bool step()
    {
        if (events_.empty() || halted_)
            return false;
        auto node = events_.extract(events_.begin());
        now_ = node.key().first;
        ++dispatched_;
        node.mapped()();
        return true;
    }

    std::uint64_t runUntil(SimTime until)
    {
        std::uint64_t n = 0;
        while (!events_.empty() && !halted_ &&
               events_.begin()->first.first <= until) {
            step();
            ++n;
        }
        if (!halted_ && now_ < until)
            now_ = until;
        return n;
    }

    std::uint64_t runAll()
    {
        std::uint64_t n = 0;
        while (step())
            ++n;
        return n;
    }

    void halt() { halted_ = true; }
    void resume() { halted_ = false; }
    void clearPending() { events_.clear(); }

  private:
    std::map<std::pair<SimTime, std::uint64_t>, std::function<void()>>
        events_;
    SimTime now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t dispatched_ = 0;
    bool halted_ = false;
};

/** Shape of a random schedule. */
struct Mix
{
    int initial = 200;          ///< events seeded before running
    SimTime spread = usec(50);  ///< initial times in [0, spread)
    int max_children = 3;       ///< each event schedules 0..max
    SimTime max_delay = usec(20);
    double past = 0.1;          ///< child scheduled before now()
    double tie = 0.3;           ///< child scheduled at exactly now()
    double burst = 0.0;         ///< event schedules a burst instead
    int burst_size = 0;
    std::uint64_t halt_at = 0;  ///< event id that halts (0 = none)
    int max_events = 20000;     ///< stop spawning past this many
};

/**
 * Drives one queue through a seeded random schedule and records the
 * dispatch trace as (now(), event id). Each event's capture carries a
 * shared token and a payload derived from its id, so a slot that was
 * moved from, overwritten or freed early shows up as a wrong checksum
 * (or, under ASan, as a use-after-free).
 */
template <typename Q>
class Script
{
  public:
    using Trace = std::vector<std::pair<SimTime, std::int64_t>>;

    Script(Q &q, std::uint64_t seed, const Mix &mix)
        : q_(q), rng_(seed), mix_(mix)
    {
    }

    void seed()
    {
        for (int i = 0; i < mix_.initial; ++i)
            schedule(q_.now() + rng_.uniformInt(mix_.spread));
    }

    /** Record a non-event observation (horizon, pending count). */
    void mark(std::int64_t tag, SimTime value)
    {
        trace_.emplace_back(value, tag);
    }

    void schedule(SimTime when)
    {
        const std::uint64_t id = ++next_id_;
        std::array<std::uint64_t, 6> payload;
        for (std::size_t k = 0; k < payload.size(); ++k)
            payload[k] = id * 0x9E3779B97F4A7C15ull + k;
        auto token = std::make_shared<std::uint64_t>(id);
        q_.scheduleAt(when, [this, id, token, payload] {
            fire(id, token, payload);
        });
    }

    const Trace &trace() const { return trace_; }
    std::uint64_t corrupt() const { return corrupt_; }
    std::size_t maxPending() const { return max_pending_; }

  private:
    /** Runs with references into its own capture, checked last: the
     *  capture must survive whatever the callback schedules. */
    void fire(std::uint64_t id, const std::shared_ptr<std::uint64_t> &token,
              const std::array<std::uint64_t, 6> &payload)
    {
        trace_.emplace_back(q_.now(), std::int64_t(id));
        if (id == mix_.halt_at)
            q_.halt();
        spawn();
        max_pending_ = std::max(max_pending_, q_.pending());
        for (std::size_t k = 0; k < payload.size(); ++k)
            corrupt_ += payload[k] != id * 0x9E3779B97F4A7C15ull + k;
        corrupt_ += !token || *token != id;
    }

    void spawn()
    {
        if (int(next_id_) >= mix_.max_events)
            return;
        if (rng_.bernoulli(mix_.burst)) {
            for (int i = 0; i < mix_.burst_size; ++i)
                schedule(q_.now() + rng_.uniformInt(mix_.max_delay));
            return;
        }
        const auto children =
            int(rng_.uniformInt(std::uint64_t(mix_.max_children) + 1));
        for (int c = 0; c < children; ++c) {
            const double u = rng_.uniform();
            if (u < mix_.past) {
                const SimTime back = 1 + rng_.uniformInt(usec(5));
                schedule(q_.now() > back ? q_.now() - back : 0);
            } else if (u < mix_.past + mix_.tie) {
                schedule(q_.now());
            } else {
                schedule(q_.now() + 1 + rng_.uniformInt(mix_.max_delay));
            }
        }
    }

    Q &q_;
    Rng rng_;
    Mix mix_;
    std::uint64_t next_id_ = 0;
    std::uint64_t corrupt_ = 0;
    std::size_t max_pending_ = 0;
    Trace trace_;
};

/** Run @p drive on both queues with the same seed; traces must match. */
template <typename Drive>
void
expectSameTrace(std::uint64_t seed, const Mix &mix, Drive drive)
{
    EventQueue eq;
    ReferenceQueue ref;
    Script<EventQueue> a(eq, seed, mix);
    Script<ReferenceQueue> b(ref, seed, mix);
    drive(eq, a);
    drive(ref, b);
    ASSERT_EQ(a.trace().size(), b.trace().size()) << "seed " << seed;
    EXPECT_TRUE(a.trace() == b.trace()) << "seed " << seed;
    EXPECT_EQ(a.corrupt(), 0u) << "seed " << seed;
    EXPECT_EQ(b.corrupt(), 0u) << "seed " << seed;
    EXPECT_EQ(eq.now(), ref.now());
    EXPECT_EQ(eq.pending(), ref.pending());
    EXPECT_EQ(eq.dispatched(), ref.dispatched());
    EXPECT_EQ(eq.nextEventTime(), ref.nextEventTime());
}

TEST(EventQueueOracle, ManyTiesAtOneTimestamp)
{
    Mix mix;
    mix.initial = 3000;
    mix.spread = 3;  // three distinct timestamps for 3000 events
    mix.tie = 0.6;
    mix.past = 0.2;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        expectSameTrace(seed, mix, [](auto &q, auto &s) {
            s.seed();
            q.runAll();
        });
    }
}

TEST(EventQueueOracle, PastSchedulingIsClamped)
{
    Mix mix;
    mix.past = 0.7;
    mix.tie = 0.1;
    for (std::uint64_t seed = 11; seed <= 18; ++seed) {
        expectSameTrace(seed, mix, [](auto &q, auto &s) {
            s.seed();
            q.runAll();
        });
    }
}

TEST(EventQueueOracle, BurstsGrowTheSlabMidDispatch)
{
    // Bursts of 3000 from inside a callback outgrow any pre-sized
    // slab while the dispatching callback is still running.
    Mix mix;
    mix.initial = 50;
    mix.burst = 0.002;
    mix.burst_size = 3000;
    mix.max_events = 60000;
    for (std::uint64_t seed = 21; seed <= 24; ++seed) {
        expectSameTrace(seed, mix, [](auto &q, auto &s) {
            s.seed();
            // Seed one burst up front, then let random ones follow.
            for (int i = 0; i < 3000; ++i)
                s.schedule(usec(1) + SimTime(i % 7));
            q.runAll();
            EXPECT_GT(s.maxPending(), 4500u);  // grew while dispatching
        });
    }
}

TEST(EventQueueOracle, HaltInCallbackThenClearAndReuse)
{
    Mix mix;
    mix.halt_at = 150;
    for (std::uint64_t seed = 31; seed <= 38; ++seed) {
        expectSameTrace(seed, mix, [](auto &q, auto &s) {
            s.seed();
            // Halted mid-run: the horizon must not advance the clock.
            s.mark(-1, SimTime(q.runUntil(msec(10))));
            s.mark(-2, q.now());
            s.mark(-3, SimTime(q.pending()));
            EXPECT_FALSE(q.step());
            q.clearPending();
            s.mark(-4, SimTime(q.pending()));
            q.resume();
            // Reuse after the wipe: a fresh schedule on freed slots.
            s.seed();
            s.mark(-5, SimTime(q.runUntil(q.now() + usec(30))));
            s.mark(-6, q.now());
            q.runAll();
        });
    }
}

TEST(EventQueueOracle, RunUntilHorizonsWithAndWithoutEvents)
{
    Mix mix;
    mix.max_children = 2;
    for (std::uint64_t seed = 41; seed <= 48; ++seed) {
        expectSameTrace(seed, mix, [seed](auto &q, auto &s) {
            Rng horizons(seed ^ 0xABCDEFull);
            s.seed();
            for (int i = 0; i < 60; ++i) {
                // Mostly short hops (often empty), sometimes long ones.
                const SimTime hop = horizons.bernoulli(0.2)
                                        ? horizons.uniformInt(usec(200))
                                        : horizons.uniformInt(usec(2));
                s.mark(-1, SimTime(q.runUntil(q.now() + hop)));
                s.mark(-2, q.now());
                s.mark(-3, q.nextEventTime());
            }
            q.runAll();
        });
    }
}

}  // namespace
}  // namespace fleetio
