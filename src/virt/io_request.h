/**
 * @file
 * The tenant-visible I/O request: a contiguous logical page range with a
 * direction, priority, and completion callback. Requests live in an
 * IoRequestPool and are held through IoRequestPtr handles.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "src/sim/inline_function.h"
#include "src/sim/types.h"

namespace fleetio {

/**
 * One tenant I/O. Multi-page requests fan out into per-page device
 * operations; the request completes (and its latency is measured) when
 * the last page completes.
 */
struct IoRequest
{
    VssdId vssd = 0;
    IoType type = IoType::kRead;
    Lpa lpa = 0;                ///< first logical page
    std::uint32_t npages = 1;   ///< pages spanned
    Priority prio = Priority::kMedium;

    SimTime submit_time = 0;    ///< set by the scheduler at submit
    std::uint32_t pages_done = 0;

    /** Deterministic per-scheduler request sequence number, stamped at
     *  submit. Correlates the request's trace-event span. */
    std::uint64_t trace_id = 0;

    /**
     * Inline latency-attribution record (DESIGN.md §13): the
     * per-stage breakdown of the request's last-completing page, whose
     * stage sum equals the end-to-end latency exactly. Written only
     * when attribution is on; otherwise dead weight. The
     * count mirrors obs::kNumStages (static_assert in attribution.cc)
     * so this hot struct does not pull in the obs layer.
     */
    static constexpr std::size_t kAttrStages = 9;
    SimTime attr_stages[kAttrStages] = {};
    SimTime attr_complete = 0;  ///< completion hint of the stored page

    /** Invoked once, at the completion time of the final page. */
    InlineFunction<void(const IoRequest &, SimTime completion)> on_complete;

    std::uint64_t bytes(std::uint32_t page_size) const
    {
        return std::uint64_t(npages) * page_size;
    }
};

class IoRequestPtr;

/**
 * Recycling storage for IoRequests. A request is taken with acquire()
 * and goes back to the free list when its last IoRequestPtr drops, so
 * the pool grows only when more requests are in flight than ever
 * before, and then by one chunk.
 *
 * Not thread-safe, by design: reference counts are plain integers. A
 * pool, its requests and their handles belong to one thread at a time,
 * like the simulation stack that uses them. The pool must outlive every
 * handle (IoRequestPool::local() lives until its thread exits).
 */
class IoRequestPool
{
  public:
    IoRequestPool() = default;
    ~IoRequestPool();

    IoRequestPool(const IoRequestPool &) = delete;
    IoRequestPool &operator=(const IoRequestPool &) = delete;

    /** The calling thread's pool, which IoSchedulers use by default. */
    static IoRequestPool &local();

    /** A value-initialised request with one handle on it. */
    IoRequestPtr acquire();

    /** Requests currently held by at least one handle. */
    std::size_t live() const { return live_; }

    /** The most requests ever live at once. */
    std::size_t highWater() const { return high_water_; }

    /** Slots allocated (highWater() rounded up to whole chunks). */
    std::size_t capacity() const { return slots_.size(); }

  private:
    friend class IoRequestPtr;

    struct Slot
    {
        IoRequest req;
        IoRequestPool *pool = nullptr;
        std::uint32_t refs = 0;
    };

    /** Slots added per growth step. */
    static constexpr std::size_t kChunk = 64;

    void grow();
    void release(Slot *s);

    std::deque<Slot> slots_;    ///< stable addresses as it grows
    std::vector<Slot *> free_;  ///< LIFO, capacity == slots_.size()
    std::size_t live_ = 0;
    std::size_t high_water_ = 0;
};

/**
 * Shared handle to a pooled IoRequest, with a non-atomic intrusive
 * reference count. A request in flight is held by the scheduler's
 * queued page ops and by the completion events armed for it; the last
 * handle to drop returns it to its pool. The count is not atomic so
 * the hot path costs the same whether or not the process has threads
 * (std::shared_ptr counts become locked operations once any thread
 * starts).
 */
class IoRequestPtr
{
  public:
    IoRequestPtr() noexcept = default;
    IoRequestPtr(const IoRequestPtr &o) noexcept : s_(o.s_)
    {
        if (s_ != nullptr)
            ++s_->refs;
    }
    IoRequestPtr(IoRequestPtr &&o) noexcept
        : s_(std::exchange(o.s_, nullptr))
    {
    }
    IoRequestPtr &operator=(IoRequestPtr o) noexcept
    {
        std::swap(s_, o.s_);
        return *this;
    }
    ~IoRequestPtr()
    {
        if (s_ != nullptr && --s_->refs == 0)
            s_->pool->release(s_);
    }

    IoRequest *get() const noexcept { return s_ ? &s_->req : nullptr; }
    IoRequest *operator->() const noexcept { return &s_->req; }
    IoRequest &operator*() const noexcept { return s_->req; }
    explicit operator bool() const noexcept { return s_ != nullptr; }

  private:
    friend class IoRequestPool;
    explicit IoRequestPtr(IoRequestPool::Slot *s) noexcept : s_(s) {}

    IoRequestPool::Slot *s_ = nullptr;
};

inline IoRequestPtr
IoRequestPool::acquire()
{
    if (free_.empty())
        grow();
    Slot *s = free_.back();
    free_.pop_back();
    s->req = IoRequest{};
    s->refs = 1;
    if (++live_ > high_water_)
        high_water_ = live_;
    return IoRequestPtr(s);
}

inline void
IoRequestPool::release(Slot *s)
{
    // Drop the completion's captures now, not at the slot's next use.
    s->req.on_complete = nullptr;
    free_.push_back(s);
    --live_;
}

}  // namespace fleetio
