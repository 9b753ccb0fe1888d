/**
 * @file
 * Discrete-event simulation core: a time-ordered event queue with a
 * monotonically advancing clock. All device latencies in FleetIO are
 * modelled by scheduling callbacks on this queue.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "src/sim/inline_function.h"
#include "src/sim/types.h"

namespace fleetio {

/**
 * A deterministic discrete-event queue.
 *
 * Events scheduled for the same timestamp fire in insertion order (FIFO),
 * which keeps runs reproducible across platforms. The queue owns the
 * simulated clock: now() only advances when events are dispatched.
 *
 * Storage is split in two. Callbacks live in a slab of Callback slots
 * recycled through a free list: each is written into its slot once at
 * scheduling and moved out once at dispatch, before it runs (a running
 * callback may schedule more and so grow the slab). Ordering is a binary
 * min-heap of 16-B {when, seq:slot} keys, so a sift copies two words
 * instead of relocating a type-erased callback. Callback is sized so
 * every per-page callback the simulator schedules fits inline: no
 * per-event malloc/free.
 */
class EventQueue
{
  public:
    /** Inline capture capacity of a scheduled callback, in bytes. */
    static constexpr std::size_t kInlineCallbackBytes = 96;

    using Callback = InlineFunction<void(), kInlineCallbackBytes>;

    EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    SimTime now() const { return now_; }

    /**
     * Schedule @p cb to run at absolute time @p when.
     * Scheduling in the past is clamped to now().
     */
    void scheduleAt(SimTime when, Callback cb);

    /** Schedule @p cb to run @p delay after the current time. */
    void scheduleAfter(SimTime delay, Callback cb)
    {
        scheduleAt(now_ + delay, std::move(cb));
    }

    /** True when no events remain. */
    bool empty() const { return heap_.empty(); }

    /** Number of pending events. */
    std::size_t pending() const { return heap_.size(); }

    /** Timestamp of the next event, or kTimeNever when empty. */
    SimTime nextEventTime() const
    {
        return heap_.empty() ? kTimeNever : heap_.front().when;
    }

    /**
     * Dispatch the single next event (advancing the clock to it).
     * @retval true an event was dispatched.
     * @retval false the queue was empty.
     */
    bool step();

    /**
     * Run events until the clock passes @p until or the queue drains.
     * Events at exactly @p until are dispatched. The clock is left at
     * max(now, until) so subsequent scheduling is relative to the horizon.
     * @return number of events dispatched.
     */
    std::uint64_t runUntil(SimTime until);

    /** Run every pending event. @return number dispatched. */
    std::uint64_t runAll();

    /** Total events dispatched over the queue's lifetime. */
    std::uint64_t dispatched() const { return dispatched_; }

    /**
     * Freeze dispatch (power-loss). step()/runUntil()/runAll() return
     * without dispatching — and, crucially, runUntil() does NOT advance
     * the clock to its horizon, so recovery code still sees the crash
     * instant as now(). The callback that called halt() finishes
     * normally; everything still queued stays queued until
     * clearPending() discards it or resume() lets it run.
     */
    void halt() { halted_ = true; }

    /** Un-freeze dispatch after recovery re-seeds the queue. */
    void resume() { halted_ = false; }

    bool halted() const { return halted_; }

    /** Discard every pending event (volatile state lost at power-off). */
    void clearPending();

    /**
     * Hook invoked after every dispatched event (crash-by-event-count
     * triggers). Null (the default) costs one branch per dispatch.
     */
    void setAfterDispatch(InlineFunction<void()> hook)
    {
        after_dispatch_ = std::move(hook);
    }

  private:
    /** Low bits of Key::order holding the slab slot. */
    static constexpr unsigned kSlotBits = 24;
    static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;

    /**
     * Heap entry. @c order is (seq << kSlotBits) | slot: seq is unique,
     * so ordering by (when, order) is ordering by (when, seq) — FIFO
     * within a timestamp — and the slot rides along for free.
     */
    struct Key
    {
        SimTime when;
        std::uint64_t order;
    };

    /** (when, order) lexicographically, as one 128-bit compare. */
    static bool
    before(const Key &a, const Key &b)
    {
        using U = unsigned __int128;
        return ((U(a.when) << 64) | a.order) < ((U(b.when) << 64) | b.order);
    }

    /** Place @p k at hole @p i, moving parents down past it. */
    void siftUp(std::size_t i, Key k);
    /** Place @p k at hole @p i, moving smaller children up past it. */
    void siftDown(std::size_t i, Key k);

    std::vector<Key> heap_;            // binary min-heap
    std::vector<Callback> slab_;       // [slot]; null when free
    std::vector<std::uint32_t> free_;  // free slots, reused LIFO
    SimTime now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t dispatched_ = 0;
    bool halted_ = false;
    InlineFunction<void()> after_dispatch_;
};

}  // namespace fleetio
