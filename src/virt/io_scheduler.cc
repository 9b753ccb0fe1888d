#include "src/virt/io_scheduler.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace fleetio {

IoScheduler::IoScheduler(FlashDevice &dev, VssdManager &vssds,
                         IoRequestPool &requests)
    : dev_(dev), vssds_(vssds), requests_(requests)
{
    queues_.resize(dev.geometry().num_channels);
    token_pump_scheduled_.assign(dev.geometry().num_channels, false);
    // The out-of-capacity stash is appended to from the submit path;
    // pre-size it so backpressure bursts never reallocate mid-I/O.
    blocked_.reserve(64);
    dev_.setOnSlotFreed([this](ChannelId ch) { pump(ch); });
}

void
IoScheduler::setBucket(Buckets &b, VssdId id, double rate_bytes_per_sec,
                       double burst_bytes)
{
    if (rate_bytes_per_sec <= 0) {
        if (id < b.size())
            b[id].reset();
        return;
    }
    if (b.size() <= id)
        b.resize(id + 1);
    b[id].emplace(rate_bytes_per_sec, burst_bytes);
}

void
IoScheduler::setRateLimit(VssdId id, double rate_bytes_per_sec,
                          double burst_bytes)
{
    setBucket(buckets_, id, rate_bytes_per_sec, burst_bytes);
}

void
IoScheduler::setTierLimit(VssdId id, double rate_bytes_per_sec,
                          double burst_bytes)
{
    setBucket(tier_buckets_, id, rate_bytes_per_sec, burst_bytes);
}

bool
IoScheduler::tenantQuiesced(VssdId id) const
{
    if (inflightRequests(id) != 0)
        return false;
    for (const BlockedWrite &bw : blocked_) {
        if (bw.req->vssd == id)
            return false;
    }
    return true;
}

void
IoScheduler::submit(IoRequestPtr req)
{
    EventQueue &eq = dev_.eventQueue();
    req->submit_time = eq.now();
    Vssd *v = vssds_.get(req->vssd);
    assert(v != nullptr);
    assert(vssds_.alive(req->vssd) &&
           "I/O submitted for a removed vSSD");
    assert(!v->retiring() && "I/O submitted for a draining vSSD");
    req->prio = v->effectivePriority();
    if (inflight_reqs_.size() <= req->vssd)
        inflight_reqs_.resize(req->vssd + 1, 0);
    ++inflight_reqs_[req->vssd];
    req->pages_done = 0;
    req->trace_id = next_req_id_++;
    FLEETIO_PROBE(dev_.probe(),
                  ioSubmit(eq.now(), req->vssd, req->trace_id, req->type,
                           req->npages, req->attr_stages,
                           &req->attr_complete));

    for (std::uint32_t i = 0; i < req->npages; ++i)
        enqueuePage(req, req->lpa + i);

    // Writing may have raised capacity pressure: nudge this tenant's GC.
    if (req->type == IoType::kWrite && v->ftl().needsGc())
        v->gc().maybeStart();
}

void
IoScheduler::enqueuePage(IoRequestPtr req, Lpa lpa)
{
    Vssd *v = vssds_.get(req->vssd);
    Ftl &ftl = v->ftl();

    if (req->type == IoType::kRead) {
        const Ppa ppa = ftl.lookup(lpa);
        if (ppa == kNoPpa) {
            // Reading an unwritten page: served from the mapping table
            // (no flash access), modelled as a chip-read-latency delay.
            completeZeroFill(req);
            return;
        }
        PageOp op;
        op.req = req;
        op.ppa = ppa;
        op.foreign = isForeign(ftl, ppa);
        enqueueOp(dev_.geometry().channelOf(ppa), req->vssd,
                  std::move(op));
        return;
    }

    // Write: resolve placement now (own channels + harvested gSBs).
    Ppa ppa;
    if (!ftl.allocateWrite(lpa, ppa)) {
        // Out of capacity: wait for GC to free blocks, then retry.
        blocked_.push_back(BlockedWrite{req, lpa});
        v->gc().maybeStart();
        if (!retry_scheduled_) {
            retry_scheduled_ = true;
            dev_.eventQueue().scheduleAfter(msec(1), [this]() {
                retry_scheduled_ = false;
                retryBlocked();
            });
        }
        return;
    }
    PageOp op;
    op.req = req;
    op.ppa = ppa;
    op.foreign = isForeign(ftl, ppa);
    enqueueOp(dev_.geometry().channelOf(ppa), req->vssd, std::move(op));
}

bool
IoScheduler::isForeign(const Ftl &ftl, Ppa ppa) const
{
    return !ftl.ownsChannel(dev_.geometry().channelOf(ppa));
}

void
IoScheduler::enqueueOp(ChannelId ch, VssdId vssd, PageOp op)
{
    ChannelQueues &cq = queues_[ch];
    if (cq.size() <= vssd)
        cq.resize(vssd + 1);
    op.seq = next_seq_++;
    op.enqueue_time = dev_.eventQueue().now();
    cq[vssd].push_back(std::move(op));
    ++queued_ops_;
    vssds_.get(vssd)->queue().onEnqueue();
    pump(ch);
}

void
IoScheduler::completeZeroFill(IoRequestPtr req)
{
    EventQueue &eq = dev_.eventQueue();
    const SimTime lat = dev_.geometry().read_latency;
    // The whole page span is modelled chip service: no queueing, no
    // bus, no interference — the mapping table answered.
    FLEETIO_PROBE(dev_.probe(),
                  ioZeroFill(req->vssd, lat, eq.now() + lat,
                             req->attr_stages, &req->attr_complete));
    eq.scheduleAfter(lat, [this, req]() {
        onPageDone(req);
    });
}

void
IoScheduler::onPageDone(IoRequestPtr req)
{
    ++req->pages_done;
    if (req->pages_done < req->npages)
        return;
    assert(req->vssd < inflight_reqs_.size() &&
           inflight_reqs_[req->vssd] > 0);
    --inflight_reqs_[req->vssd];
    EventQueue &eq = dev_.eventQueue();
    Vssd *v = vssds_.get(req->vssd);
    const SimTime now = eq.now();
    const SimTime lat = now - req->submit_time;
    v->latency().record(lat);
    const std::uint64_t bytes = req->bytes(dev_.geometry().page_size);
    v->bandwidth().record(req->type, bytes);
    FLEETIO_PROBE(dev_.probe(),
                  ioComplete(now, req->vssd, req->trace_id, req->type,
                             req->submit_time, bytes, req->attr_stages));
    if (completion_tap_)
        completion_tap_(*req);
    if (req->on_complete)
        req->on_complete(*req, now);
}

void
IoScheduler::crashReset()
{
    for (ChannelQueues &cq : queues_)
        for (auto &dq : cq)
            dq.clear();
    blocked_.clear();
    std::fill(inflight_reqs_.begin(), inflight_reqs_.end(), 0);
    std::fill(token_pump_scheduled_.begin(),
              token_pump_scheduled_.end(), false);
    retry_scheduled_ = false;
    queued_ops_ = 0;
}

void
IoScheduler::pump(ChannelId ch)
{
    EventQueue &eq = dev_.eventQueue();
    ChannelQueues &cq = queues_[ch];

    while (dev_.canDispatch(ch)) {
        // Collect candidate vSSDs: non-empty queue, token-eligible.
        std::size_t best = SIZE_MAX;
        int best_prio = -1;
        double best_pass = std::numeric_limits<double>::max();
        std::uint64_t best_seq = std::numeric_limits<std::uint64_t>::max();
        SimTime earliest_token = kTimeNever;
        const double page_bytes = double(dev_.geometry().page_size);

        for (std::size_t vid = 0; vid < cq.size(); ++vid) {
            if (cq[vid].empty())
                continue;
            if (TokenBucket *tb = bucketOf(buckets_, VssdId(vid))) {
                if (tb->tokens(eq.now()) + 1e-9 < page_bytes) {
                    earliest_token = std::min(
                        earliest_token,
                        tb->availableAt(page_bytes, eq.now()));
                    continue;
                }
            }
            if (TokenBucket *tb = bucketOf(tier_buckets_, VssdId(vid))) {
                if (tb->tokens(eq.now()) + 1e-9 < page_bytes) {
                    earliest_token = std::min(
                        earliest_token,
                        tb->availableAt(page_bytes, eq.now()));
                    continue;
                }
            }
            const PageOp &head = cq[vid].front();
            // Foreign (harvested-channel) ops respect the op's own
            // priority cap; on its own channels a vSSD is never
            // throttled below the medium cap.
            const std::size_t cap_prio =
                head.foreign ? std::size_t(head.req->prio)
                             : std::max(std::size_t(head.req->prio),
                                        std::size_t(Priority::kMedium));
            if (dev_.channel(ch).outstanding() >= prio_caps_[cap_prio])
                continue;  // keep the queue shallow for this priority
            const int prio = use_priority_ ? int(head.req->prio) : 0;
            const double pass =
                use_stride_ ? stride_.pass(VssdId(vid)) : 0.0;

            bool better = false;
            if (best == SIZE_MAX) {
                better = true;
            } else if (prio != best_prio) {
                better = prio > best_prio;
            } else if (use_stride_ && pass != best_pass) {
                better = pass < best_pass;
            } else {
                better = head.seq < best_seq;
            }
            if (better) {
                best = vid;
                best_prio = prio;
                best_pass = pass;
                best_seq = head.seq;
            }
        }

        if (best == SIZE_MAX) {
            // Nothing eligible. If tokens are the only blocker, pump
            // again when they refill.
            if (earliest_token != kTimeNever)
                scheduleTokenPump(ch, earliest_token);
            return;
        }

        PageOp op = std::move(cq[best].front());
        cq[best].pop_front();
        --queued_ops_;
        ++dispatched_ops_;

        const VssdId vid = VssdId(best);
        Vssd *v = vssds_.get(vid);
        const SimTime wait = eq.now() - op.enqueue_time;
        v->queue().onDispatch(wait);
        FLEETIO_PROBE(dev_.probe(),
                      ioDispatch(eq.now(), vid, op.req->trace_id, ch,
                                 wait));
        if (use_stride_)
            stride_.charge(vid);
        if (TokenBucket *tb = bucketOf(buckets_, vid))
            tb->tryConsume(page_bytes, eq.now());
        if (TokenBucket *tb = bucketOf(tier_buckets_, vid))
            tb->tryConsume(page_bytes, eq.now());

        IoRequestPtr req = op.req;
        auto done = [this, req, ch]() {
            onPageDone(req);
            pump(ch);
        };
        static_assert(EventQueue::Callback::fitsInline<decltype(done)>(),
                      "page completion must fit a Callback inline");
        {
            // Arm attribution for this page: the device notes its exact
            // wait/service split against this tenant; foreign ops leave
            // harvest occupancy segments for their victims' ledgers.
            FLEETIO_PROBE_SCOPE(dev_.probe(), vid,
                                op.foreign ? obs::SegKind::kHarvestOp
                                           : obs::SegKind::kHostOp);
            if (req->type == IoType::kRead)
                dev_.issueRead(op.ppa, std::move(done));
            else
                dev_.issueProgram(op.ppa, std::move(done));
        }
        FLEETIO_PROBE(dev_.probe(),
                      ioPageIssued(op.enqueue_time - req->submit_time,
                                   wait, req->attr_stages,
                                   &req->attr_complete));
    }
}

void
IoScheduler::retryBlocked()
{
    if (blocked_.empty())
        return;
    std::vector<BlockedWrite> pending;
    pending.swap(blocked_);
    for (auto &bw : pending)
        enqueuePage(bw.req, bw.lpa);
    // enqueuePage re-adds still-stuck writes to blocked_ and re-arms the
    // retry timer through the normal path.
}

void
IoScheduler::scheduleTokenPump(ChannelId ch, SimTime when)
{
    if (token_pump_scheduled_[ch])
        return;
    token_pump_scheduled_[ch] = true;
    dev_.eventQueue().scheduleAt(when, [this, ch]() {
        token_pump_scheduled_[ch] = false;
        pump(ch);
    });
}

}  // namespace fleetio
