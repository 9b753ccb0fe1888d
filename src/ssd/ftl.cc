#include "src/ssd/ftl.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "src/ssd/durability.h"

namespace fleetio {

Ftl::Ftl(FlashDevice &dev, const Config &cfg) : dev_(&dev), cfg_(cfg)
{
    const auto &geo = dev_->geometry();
    logical_pages_ = std::uint64_t(
        double(cfg_.quota_blocks) * geo.pages_per_block *
        (1.0 - geo.op_ratio));
    map_.assign(logical_pages_, kNoPpa);
    open_points_.clear();
    // One write point per (channel, chip) so programs exploit the
    // chip-level parallelism behind each channel bus.
    open_points_.reserve(std::size_t(cfg_.channels.size()) *
                         geo.chips_per_channel);
    for (ChannelId ch : cfg_.channels) {
        for (ChipId c = 0; c < geo.chips_per_channel; ++c) {
            open_points_.push_back(
                OpenPoint{ch, c, UINT32_MAX, false, &dev_->chip(ch, c)});
        }
    }
    rebuildOwnChannelMask();
}

void
Ftl::rebuildOwnChannelMask()
{
    own_channel_.assign(dev_->geometry().num_channels, 0);
    for (ChannelId ch : cfg_.channels) {
        if (ch < own_channel_.size())
            own_channel_[ch] = 1;
    }
}

bool
Ftl::ensureOpen(OpenPoint &pt)
{
    const auto &geo = dev_->geometry();
    if (pt.valid) {
        const FlashBlock &blk = pt.chp->block(pt.block);
        if (!blk.isFull(geo.pages_per_block) &&
            blk.state == BlockState::kOpen) {
            return true;
        }
        pt.valid = false;
    }
    if (blocks_used_ >= cfg_.quota_blocks)
        return false;  // quota exhausted; GC must reclaim first
    // Prefer the point's own chip; fall back to any chip on the
    // channel when it has no free block.
    BlockId blk = pt.chp->allocateBlock(cfg_.vssd);
    if (blk == UINT32_MAX) {
        ChipId chip;
        if (!dev_->allocateBlock(pt.channel, cfg_.vssd, chip, blk))
            return false;  // channel physically out of free blocks
        pt.chip = chip;
        pt.chp = &dev_->chip(pt.channel, chip);
    }
    pt.block = blk;
    pt.valid = true;
    ++blocks_used_;
    return true;
}

bool
Ftl::programWithFaultCheck(OpenPoint &pt, Ppa &out)
{
    FlashChip &chp = *pt.chp;
    const PageId pg = chp.programNextPage(pt.block);
    FaultInjector *fi = dev_->faultInjector();
    if (fi != nullptr && fi->programFails(chp.block(pt.block))) {
        // Program failure: the page is dead (it stays a hole in the
        // block) and the block stops taking new data. The caller
        // re-allocates on another write point and remaps the LPA
        // there, so no mapping is ever lost.
        chp.invalidatePage(pt.block, pg);
        dev_->durableClose(pt.channel, pt.chip, pt.block);
        pt.valid = false;
        ++program_fail_repairs_;
        return false;
    }
    out = dev_->geometry().makePpa(pt.channel, pt.chip, pt.block, pg);
    return true;
}

bool
Ftl::allocateOwnPage(Ppa &out)
{
    if (open_points_.empty())
        return false;
    // Strict round-robin over (channel, chip) write points: placement
    // is decided at enqueue time (before device timing resolves), so a
    // load-based choice would pile queued writes onto whichever chip
    // looked idle; round-robin stripes them evenly by construction.
    const std::size_t n = open_points_.size();
    std::size_t i = rr_cursor_ < n ? rr_cursor_ : 0;
    for (std::size_t k = 0; k < n; ++k) {
        OpenPoint &pt = open_points_[i];
        bool ok = ensureOpen(pt) && (programWithFaultCheck(pt, out) ||
                                     // Re-program on the same point first
                                     // (a fresh block on the same chip
                                     // keeps the striping even); fall
                                     // through to the next point when the
                                     // chip is out of blocks or fails
                                     // again.
                                     (ensureOpen(pt) &&
                                      programWithFaultCheck(pt, out)));
        if (ok) {
            rr_cursor_ = i + 1 < n ? i + 1 : 0;
            return true;
        }
        i = i + 1 < n ? i + 1 : 0;
    }
    return false;
}

void
Ftl::installMapping(Lpa lpa, Ppa ppa)
{
    assert(lpa < logical_pages_);
    const Ppa old = map_[lpa];
    if (old != kNoPpa) {
        dev_->invalidatePage(old);
    } else {
        ++live_pages_;
    }
    map_[lpa] = ppa;
    dev_->setRmap(ppa, cfg_.vssd, lpa);
    // OOB metadata is written eagerly with the mapping ("eager
    // metadata, lazy timing"): once a write is acknowledged its page is
    // already durable, so acked writes survive any crash by
    // construction (DESIGN.md §12).
    if (DurabilityModel *d = dev_->durability())
        d->recordWrite(cfg_.vssd, lpa, ppa);
}

bool
Ftl::allocateWrite(Lpa lpa, Ppa &out)
{
    assert(lpa < logical_pages_);
    // Stripe writes over own channels and harvested external capacity
    // proportionally to channel counts, so harvesting *adds* write
    // bandwidth on top of the vSSD's own parallelism.
    // Externals are weighted up: harvested channels carry only this
    // tenant's overflow writes (the home's traffic is light by
    // construction), while own channels also serve all reads.
    constexpr std::uint32_t kExternalStripeWeight = 2;
    std::uint32_t ext_channels = 0;
    for (ExternalWriteSource *src : externals_) {
        if (!src->exhausted())
            ext_channels += kExternalStripeWeight * src->numChannels();
    }
    const std::uint32_t own_channels =
        std::uint32_t(cfg_.channels.size());
    const std::uint32_t total = own_channels + ext_channels;

    bool external_first = false;
    if (ext_channels > 0 && total > 0) {
        external_first =
            (stripe_counter_++ % total) >= own_channels;
    }

    Ppa ppa = kNoPpa;
    bool placed = false;
    auto try_external = [&]() {
        for (ExternalWriteSource *src : externals_) {
            if (!src->exhausted() && src->allocatePage(ppa))
                return true;
        }
        return false;
    };

    if (external_first)
        placed = try_external();
    if (!placed)
        placed = allocateOwnPage(ppa);
    if (!placed && !external_first)
        placed = try_external();
    if (!placed)
        placed = allocateFallback(ppa);

    if (!placed)
        return false;
    installMapping(lpa, ppa);
    out = ppa;
    return true;
}

Ppa
Ftl::lookup(Lpa lpa) const
{
    if (lpa >= logical_pages_)
        return kNoPpa;
    return map_[lpa];
}

void
Ftl::trim(Lpa lpa)
{
    if (lpa >= logical_pages_ || map_[lpa] == kNoPpa)
        return;
    dev_->invalidatePage(map_[lpa]);
    map_[lpa] = kNoPpa;
    assert(live_pages_ > 0);
    --live_pages_;
    // The journal tombstone outranks the page's OOB record, so a
    // recovery scan cannot resurrect the trimmed mapping.
    if (DurabilityModel *d = dev_->durability())
        d->journalTrim(cfg_.vssd, lpa);
}

void
Ftl::trimAll()
{
    for (Lpa lpa = 0; lpa < logical_pages_; ++lpa) {
        if (map_[lpa] != kNoPpa) {
            dev_->invalidatePage(map_[lpa]);
            map_[lpa] = kNoPpa;
        }
    }
    live_pages_ = 0;
    // One wipe tombstone covers every page: recovery suppresses all of
    // this tenant's older OOB records in a single record instead of a
    // per-page journal flood.
    if (DurabilityModel *d = dev_->durability())
        d->journalTenantWiped(cfg_.vssd);
}

bool
Ftl::allocateRelocation(Ppa &out)
{
    if (allocateOwnPage(out))
        return true;
    return allocateFallback(out);
}

bool
Ftl::allocateFallback(Ppa &out)
{
    // The own channels are physically out of free blocks (e.g. after a
    // dynamic repartition shrank the channel set while live data still
    // sits on the old channels). Place anywhere the device has room -
    // still charged against this tenant's quota - so writes and
    // compaction always make progress.
    const auto &geo = dev_->geometry();
    if (blocks_used_ >= cfg_.quota_blocks)
        return false;
    if (relo_point_.valid) {
        FlashChip &chp = *relo_point_.chp;
        const FlashBlock &blk = chp.block(relo_point_.block);
        if (blk.state == BlockState::kOpen &&
            !blk.isFull(geo.pages_per_block) &&
            programWithFaultCheck(relo_point_, out)) {
            return true;
        }
        relo_point_.valid = false;
    }
    // A program failure condemns the fresh block too, so retry a
    // bounded number of fresh allocations before giving up.
    constexpr int kMaxFallbackAttempts = 4;
    for (int attempt = 0; attempt < kMaxFallbackAttempts; ++attempt) {
        ChannelId best = geo.num_channels;
        std::uint32_t best_free = 0;
        for (ChannelId ch = 0; ch < geo.num_channels; ++ch) {
            const std::uint32_t f = dev_->freeBlocksInChannel(ch);
            if (f > best_free) {
                best_free = f;
                best = ch;
            }
        }
        if (best == geo.num_channels)
            return false;
        ChipId chip;
        BlockId blk;
        if (!dev_->allocateBlock(best, cfg_.vssd, chip, blk))
            return false;
        ++blocks_used_;
        relo_point_ =
            OpenPoint{best, chip, blk, true, &dev_->chip(best, chip)};
        if (programWithFaultCheck(relo_point_, out))
            return true;
    }
    return false;
}

void
Ftl::remap(Lpa lpa, Ppa new_ppa)
{
    assert(lpa < logical_pages_);
    // The old page's block is being erased by GC; only repoint the map
    // and reverse map.
    map_[lpa] = new_ppa;
    dev_->setRmap(new_ppa, cfg_.vssd, lpa);
    if (DurabilityModel *d = dev_->durability())
        d->recordWrite(cfg_.vssd, lpa, new_ppa);
}

void
Ftl::onBlocksReclaimed(std::uint64_t n)
{
    blocks_used_ = blocks_used_ >= n ? blocks_used_ - n : 0;
}

std::uint64_t
Ftl::releaseOpenPoints()
{
    std::uint64_t released = 0;
    auto drop = [&](OpenPoint &pt) {
        if (!pt.valid)
            return;
        const FlashBlock &blk = pt.chp->block(pt.block);
        if (blk.state == BlockState::kOpen) {
            if (blk.write_ptr == 0) {
                dev_->durableRelease(pt.channel, pt.chip, pt.block);
                ++released;
            } else {
                dev_->durableClose(pt.channel, pt.chip, pt.block);
            }
        }
        pt.valid = false;
    };
    for (OpenPoint &pt : open_points_)
        drop(pt);
    drop(relo_point_);
    onBlocksReclaimed(released);
    return released;
}

void
Ftl::addExternalSource(ExternalWriteSource *src)
{
    // fleetio-analyze: allow(hot-alloc): once per harvested gSB, control plane
    externals_.push_back(src);
}

void
Ftl::removeExternalSource(ExternalWriteSource *src)
{
    externals_.erase(std::remove(externals_.begin(), externals_.end(), src),
                     externals_.end());
}

void
Ftl::setChannels(const std::vector<ChannelId> &channels)
{
    cfg_.channels = channels;
    // Keep open points on channels that survive; abandon the rest.
    // Abandoned partially-written blocks are closed (padded) so GC can
    // later select them as victims — otherwise every repartition would
    // leak an open block per write point, silently draining the quota.
    std::vector<OpenPoint> kept;
    const auto chips = dev_->geometry().chips_per_channel;
    for (ChannelId ch : channels) {
        for (ChipId c = 0; c < chips; ++c) {
            auto it = std::find_if(
                open_points_.begin(), open_points_.end(),
                [ch, c](const OpenPoint &p) {
                    return p.channel == ch && p.chip == c;
                });
            if (it != open_points_.end()) {
                // fleetio-analyze: allow(hot-alloc): per Adaptive/SSDKeeper repartition, control plane
                kept.push_back(*it);
                it->valid = false;  // consumed; don't close below
            } else {
                // fleetio-analyze: allow(hot-alloc): per Adaptive/SSDKeeper repartition, control plane
                kept.push_back(OpenPoint{ch, c, UINT32_MAX, false,
                                         &dev_->chip(ch, c)});
            }
        }
    }
    for (const OpenPoint &pt : open_points_) {
        if (pt.valid)
            dev_->durableClose(pt.channel, pt.chip, pt.block);
    }
    open_points_ = std::move(kept);
    rr_cursor_ = 0;
    rebuildOwnChannelMask();
}

double
Ftl::freeQuotaRatio() const
{
    if (cfg_.quota_blocks == 0)
        return 0.0;
    const std::uint64_t used = std::min(blocks_used_, cfg_.quota_blocks);
    return double(cfg_.quota_blocks - used) / double(cfg_.quota_blocks);
}

std::uint64_t
Ftl::availableBytes() const
{
    const std::uint64_t live = std::min(live_pages_, logical_pages_);
    return (logical_pages_ - live) * dev_->geometry().page_size;
}

bool
Ftl::needsGc() const
{
    return freeQuotaRatio() < dev_->geometry().gc_free_threshold;
}

void
Ftl::beginRecovery()
{
    map_.assign(logical_pages_, kNoPpa);
    live_pages_ = 0;
    blocks_used_ = 0;
    for (OpenPoint &pt : open_points_)
        pt.valid = false;
    relo_point_.valid = false;
    rr_cursor_ = 0;
    stripe_counter_ = 0;
}

void
Ftl::restoreMapping(Lpa lpa, Ppa ppa)
{
    if (lpa >= logical_pages_)
        return;  // mapping from before a quota shrink: stale, drop it
    assert(map_[lpa] == kNoPpa &&
           "the recovery merge emits at most one winner per LPA");
    map_[lpa] = ppa;
    ++live_pages_;
    dev_->setRmap(ppa, cfg_.vssd, lpa);
    dev_->revalidatePage(ppa);
}

}  // namespace fleetio
