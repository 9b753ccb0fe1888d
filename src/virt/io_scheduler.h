/**
 * @file
 * The shared-device I/O scheduler: splits tenant requests into page
 * operations, queues them per channel, and dispatches under the channel
 * queue-depth limit using priority FIFO (FleetIO / hardware isolation)
 * and/or token-bucket + stride scheduling (software isolation).
 */
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "src/sim/types.h"
#include "src/ssd/flash_device.h"
#include "src/virt/io_request.h"
#include "src/virt/stride_scheduler.h"
#include "src/virt/token_bucket.h"
#include "src/virt/vssd.h"

namespace fleetio {

/**
 * Request fan-out and channel-level dispatch for all collocated vSSDs.
 *
 * Scheduling is composed from two switches:
 *  - usePriority(): order candidates by the vSSD priority level first
 *    (FleetIO's Set_Priority action; FIFO within a level);
 *  - useStride(): break ties (or, alone, order) by stride-scheduler
 *    pass values; token buckets gate eligibility when configured.
 *
 * Writes resolve their physical placement at enqueue time through the
 * tenant's FTL (own channels plus harvested gSB capacity); reads go to
 * wherever the data lives. Writes that find no free capacity wait for
 * GC and retry on a short timer.
 */
class IoScheduler
{
  public:
    /** Requests come from @p requests, by default the constructing
     *  thread's pool. */
    IoScheduler(FlashDevice &dev, VssdManager &vssds,
                IoRequestPool &requests = IoRequestPool::local());

    /** The pool tenant requests for this scheduler are taken from. */
    IoRequestPool &requests() { return requests_; }

    /** Enable priority-level ordering (default on). */
    void usePriority(bool on) { use_priority_ = on; }

    /**
     * Per-priority dispatch cap: an op of priority p is dispatched only
     * while the channel has fewer than cap(p) outstanding ops. Lower
     * caps keep the device queue shallow for low-priority traffic, so
     * high-priority I/O on shared channels sees a short bus backlog —
     * the mechanism behind FleetIO's Set_Priority isolation. Caps are
     * a device-dispatch property and apply in every scheduling mode
     * (everything defaults to medium).
     */
    void setPriorityCap(Priority p, std::uint32_t cap)
    {
        prio_caps_[std::size_t(p)] = cap;
    }
    std::uint32_t priorityCap(Priority p) const
    {
        return prio_caps_[std::size_t(p)];
    }

    /** Enable stride proportional sharing (default off). */
    void useStride(bool on) { use_stride_ = on; }

    /** Set a tenant's stride tickets (registers it for stride mode). */
    void setTickets(VssdId id, double tickets)
    {
        stride_.setTickets(id, tickets);
    }

    /**
     * Install a token-bucket rate limit for a tenant (bytes/s, burst
     * bytes). Pass rate <= 0 to remove.
     */
    void setRateLimit(VssdId id, double rate_bytes_per_sec,
                      double burst_bytes);

    /**
     * G-state bandwidth cap (DESIGN.md §11), kept separate from the
     * policy-owned setRateLimit so software-isolation baselines and
     * elastic degradation compose. Pass rate <= 0 to remove.
     */
    void setTierLimit(VssdId id, double rate_bytes_per_sec,
                      double burst_bytes);

    /** Submit one tenant request. The scheduler stamps submit_time and
     *  the vSSD's current priority (clamped by its G-state ceiling). */
    void submit(IoRequestPtr req);

    /** Requests submitted but not yet completed for one tenant. */
    std::uint64_t inflightRequests(VssdId id) const
    {
        return id < inflight_reqs_.size() ? inflight_reqs_[id] : 0;
    }

    /**
     * True when a tenant has nothing in the scheduler: no in-flight
     * requests (which covers queued page ops) and no capacity-blocked
     * writes. The drain phase of retirement polls this.
     */
    bool tenantQuiesced(VssdId id) const;

    /** Page operations waiting across all channels (telemetry). */
    std::uint64_t queuedOps() const { return queued_ops_; }

    /** Requests whose writes are stalled on free capacity. */
    std::size_t blockedWrites() const { return blocked_.size(); }

    /** Lifetime count of dispatched page operations. */
    std::uint64_t dispatchedOps() const { return dispatched_ops_; }

    /**
     * Observer invoked once per completed (acknowledged) request,
     * alongside the request's own on_complete. The crash harness uses
     * it as the acked-write ledger: anything acknowledged through this
     * tap must be recoverable after a power loss.
     */
    using CompletionTap = InlineFunction<void(const IoRequest &), 32>;
    void setCompletionTap(CompletionTap tap)
    {
        completion_tap_ = std::move(tap);
    }

    /**
     * Power loss: every queued page op, in-flight request, blocked
     * write, and pump/retry timer dies with the event queue. Lifetime
     * telemetry counters survive.
     */
    void crashReset();

  private:
    struct PageOp
    {
        IoRequestPtr req;
        Ppa ppa = kNoPpa;
        std::uint64_t seq = 0;
        SimTime enqueue_time = 0;
        /** Op targets a channel outside the vSSD's own set (i.e.
         *  harvested capacity): full priority caps apply. On own
         *  channels a vSSD is never throttled below medium. */
        bool foreign = false;
    };

    struct BlockedWrite
    {
        IoRequestPtr req;
        Lpa lpa;
    };

    /** Per-channel queues, one deque per vSSD. */
    using ChannelQueues = std::vector<std::deque<PageOp>>;

    void enqueuePage(IoRequestPtr req, Lpa lpa);
    bool isForeign(const Ftl &ftl, Ppa ppa) const;
    void enqueueOp(ChannelId ch, VssdId vssd, PageOp op);
    void completeZeroFill(IoRequestPtr req);
    void onPageDone(IoRequestPtr req);
    void pump(ChannelId ch);
    void retryBlocked();
    void scheduleTokenPump(ChannelId ch, SimTime when);

    /** Token buckets indexed by VssdId; empty = no limit. */
    using Buckets = std::vector<std::optional<TokenBucket>>;

    static void setBucket(Buckets &b, VssdId id, double rate_bytes_per_sec,
                          double burst_bytes);
    static TokenBucket *bucketOf(Buckets &b, VssdId id)
    {
        return id < b.size() && b[id] ? &*b[id] : nullptr;
    }

    FlashDevice &dev_;
    VssdManager &vssds_;
    IoRequestPool &requests_;
    std::vector<ChannelQueues> queues_;  // [channel][vssd]
    Buckets buckets_;       // policy rate limits
    Buckets tier_buckets_;  // G-state caps
    std::vector<std::uint64_t> inflight_reqs_;  // [vssd]
    StrideScheduler stride_;
    std::vector<BlockedWrite> blocked_;
    std::vector<bool> token_pump_scheduled_;

    bool use_priority_ = true;
    bool use_stride_ = false;
    /** Dispatch caps indexed by Priority (low, medium, high). */
    std::array<std::uint32_t, kNumPriorities> prio_caps_{2u, 6u, 64u};
    bool retry_scheduled_ = false;
    std::uint64_t next_seq_ = 0;
    std::uint64_t next_req_id_ = 0;
    std::uint64_t queued_ops_ = 0;
    std::uint64_t dispatched_ops_ = 0;

    CompletionTap completion_tap_;
};

}  // namespace fleetio
