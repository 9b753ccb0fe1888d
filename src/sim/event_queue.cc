#include "src/sim/event_queue.h"

#include <cassert>
#include <utility>

namespace fleetio {

namespace {

/**
 * Slots pre-sized at construction: the deepest perfbench cell (60-s
 * fleetio-mix8) peaks at 256 pending events. Deeper queues grow the
 * slab by doubling.
 */
constexpr std::size_t kInitialSlots = 256;

}  // namespace

EventQueue::EventQueue()
{
    heap_.reserve(kInitialSlots);
    slab_.reserve(kInitialSlots);
    free_.reserve(kInitialSlots);
}

void
EventQueue::scheduleAt(SimTime when, Callback cb)
{
    if (when < now_)
        when = now_;
    std::uint32_t slot;
    if (!free_.empty()) {
        slot = free_.back();
        free_.pop_back();
        slab_[slot] = std::move(cb);
    } else {
        slot = std::uint32_t(slab_.size());
        assert(slot <= kSlotMask && "event slab exhausted");
        slab_.push_back(std::move(cb));
    }
    assert(seq_ < (1ull << (64 - kSlotBits)) && "event sequence wrapped");
    heap_.push_back(Key{});
    siftUp(heap_.size() - 1, Key{when, (seq_++ << kSlotBits) | slot});
}

void
EventQueue::siftUp(std::size_t i, Key k)
{
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!before(k, heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = k;
}

void
EventQueue::siftDown(std::size_t i, Key k)
{
    const std::size_t n = heap_.size();
    for (std::size_t c = 2 * i + 1; c < n; c = 2 * i + 1) {
        if (c + 1 < n && before(heap_[c + 1], heap_[c]))
            ++c;
        if (!before(heap_[c], k))
            break;
        heap_[i] = heap_[c];
        i = c;
    }
    heap_[i] = k;
}

bool
EventQueue::step()
{
    if (heap_.empty() || halted_)
        return false;
    const Key top = heap_.front();
    const Key tail = heap_.back();
    heap_.pop_back();
    if (!heap_.empty())
        siftDown(0, tail);
    // Move the callback out and free its slot before running it: the
    // callback may schedule (reusing the slot or growing the slab) or
    // clear the queue.
    const auto slot = std::uint32_t(top.order & kSlotMask);
    Callback cb = std::move(slab_[slot]);
    free_.push_back(slot);
    now_ = top.when;
    ++dispatched_;
    if (cb)
        cb();
    if (after_dispatch_)
        after_dispatch_();
    return true;
}

std::uint64_t
EventQueue::runUntil(SimTime until)
{
    std::uint64_t n = 0;
    while (!heap_.empty() && !halted_ && heap_.front().when <= until) {
        step();
        ++n;
    }
    // A halted queue must keep now() at the crash instant; recovery
    // resumes and re-enters runUntil for the remaining horizon.
    if (!halted_ && now_ < until)
        now_ = until;
    return n;
}

std::uint64_t
EventQueue::runAll()
{
    std::uint64_t n = 0;
    while (step())
        ++n;
    return n;
}

void
EventQueue::clearPending()
{
    heap_.clear();
    free_.clear();
    // Capacity stays: the re-seeded queue reuses the pre-sized storage.
    slab_.clear();
}

}  // namespace fleetio
