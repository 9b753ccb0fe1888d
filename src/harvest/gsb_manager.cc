#include "src/harvest/gsb_manager.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace fleetio {

namespace {
/** §3.6: no gSB creation on channels with less than 25 % free blocks. */
constexpr double kMinFreeRatioForGsb = 0.25;

/** Graceful degradation: channels whose retired-block density reaches
 *  this fraction stop hosting new gSBs (their shrunken pool should
 *  serve the owning tenants, not donations). */
constexpr double kMaxRetiredDensityForGsb = 0.10;

/** Donor-pressure revoke threshold: half the GC trigger (0.20), so a
 *  home whose free quota collapses despite GC claws donations back
 *  before it wedges at zero free blocks. */
constexpr double kDonorPressureRatio = 0.10;
}

GsbManager::GsbManager(FlashDevice &dev, VssdManager &vssds)
    : dev_(dev), vssds_(vssds), pool_(dev.geometry().num_channels)
{
}

std::uint64_t
GsbManager::blockKey(ChannelId ch, ChipId chip, BlockId blk) const
{
    const auto &geo = dev_.geometry();
    return (std::uint64_t(ch) * geo.chips_per_channel + chip) *
               geo.blocks_per_chip + blk;
}

std::uint32_t
GsbManager::bwToChannels(double gsb_bw_mbps) const
{
    // "Divide the harvestable bandwidth by the maximum bandwidth of a
    // single channel, rounding down."
    const double per_ch = dev_.geometry().channelBandwidthMBps();
    if (gsb_bw_mbps <= 0 || per_ch <= 0)
        return 0;
    return std::uint32_t(std::floor(gsb_bw_mbps / per_ch));
}

std::uint32_t
GsbManager::donatedChannels(VssdId home) const
{
    // Count only *available* supply (in the pool, unspent): harvested
    // and spent gSBs are already working or being recycled, so the
    // home keeps the advertised harvestable level stocked — this is
    // what keeps fine-grained harvesting flowing window after window.
    std::uint32_t total = 0;
    // fleetio-analyze: allow(determinism-taint): commutative sum over the map; iteration order cannot change it
    for (const auto &[id, g] : gsbs_) {
        if (g->homeVssd() == home && !g->reclaiming() && !g->spent() &&
            !g->inUse()) {
            total += g->numChannels();
        }
    }
    return total;
}

std::uint32_t
GsbManager::heldChannels(VssdId v) const
{
    std::uint32_t total = 0;
    // fleetio-analyze: allow(determinism-taint): commutative sum over the map; iteration order cannot change it
    for (const auto &[id, g] : gsbs_) {
        if (g->inUse() && g->harvestVssd() == v && !g->reclaiming() &&
            !g->spent()) {
            total += g->numChannels();
        }
    }
    return total;
}

Gsb *
GsbManager::createGsb(Vssd &home, std::uint32_t n_chls)
{
    if (dev_.crashedNow())
        return nullptr;  // no donations while power is off
    const auto &geo = dev_.geometry();
    const std::uint32_t blocks_per_ch = geo.superblock_blocks_per_channel;

    // Candidate channels: the home vSSD's own channels with enough free
    // blocks, least-loaded (most free) first.
    std::vector<ChannelId> candidates;
    for (ChannelId ch : home.ftl().channels()) {
        if (dev_.freeRatio(ch) >= kMinFreeRatioForGsb &&
            dev_.retiredRatio(ch) < kMaxRetiredDensityForGsb &&
            dev_.freeBlocksInChannel(ch) >= blocks_per_ch) {
            // fleetio-analyze: allow(hot-alloc): bounded by home channel count, runs per gSB creation
            candidates.push_back(ch);
        }
    }
    std::sort(candidates.begin(), candidates.end(),
              [this](ChannelId a, ChannelId b) {
                  return dev_.freeBlocksInChannel(a) >
                         dev_.freeBlocksInChannel(b);
              });
    if (candidates.size() < n_chls)
        n_chls = std::uint32_t(candidates.size());
    if (n_chls == 0)
        return nullptr;

    // Quota check: the donation consumes home blocks, and the home
    // keeps the same 25 % headroom it demands of channels so lending
    // never pushes it into GC pressure.
    const std::uint64_t need =
        std::uint64_t(n_chls) * blocks_per_ch;
    const auto budget = std::uint64_t(
        double(home.ftl().quotaBlocks()) * (1.0 - kMinFreeRatioForGsb));
    if (home.ftl().blocksUsed() + need > budget)
        return nullptr;

    Superblock sb(dev_);
    std::uint32_t added = 0;
    for (std::uint32_t i = 0; i < n_chls; ++i) {
        // addStripe is all-or-nothing per channel; a failure (the free
        // count shifted since the candidate scan) just drops that
        // channel from the gSB instead of aborting the donation.
        if (sb.addStripe(candidates[i], blocks_per_ch, home.id()))
            ++added;
    }
    if (added == 0)
        return nullptr;
    home.ftl().chargeDonatedBlocks(std::uint64_t(added) * blocks_per_ch);

    // fleetio-analyze: allow(hot-alloc): one boxed gSB per creation, per flush window
    auto gsb = std::make_unique<Gsb>(next_id_++, std::move(sb),
                                     home.id());
    Gsb *raw = gsb.get();

    // Mark every donated block in the HBT and index it for erase events.
    for (const auto &stripe : raw->superblock().stripes()) {
        for (const auto &[chip, blk] : stripe.blocks) {
            vssds_.hbt().mark(stripe.channel, chip, blk);
            block_to_gsb_[blockKey(stripe.channel, chip, blk)] = raw->id();
        }
    }

    gsbs_.emplace(raw->id(), std::move(gsb));
    pool_.insert(raw);
    ++created_;
    probeGsb(obs::TraceEventType::kGsbCreate, home.id(), *raw);
    return raw;
}

void
GsbManager::probeGsb(obs::TraceEventType type, VssdId tenant,
                     const Gsb &g)
{
    FLEETIO_PROBE(dev_.probe(), gsbEvent(dev_.eventQueue().now(), type,
                                         tenant, g.id(), g.numChannels()));
}

void
GsbManager::reclaimLazily(Gsb *gsb)
{
    probeGsb(obs::TraceEventType::kGsbReclaim, gsb->homeVssd(), *gsb);
    gsb->setReclaiming();
    // Detach from the harvester's write path: no new data flows in.
    if (gsb->inUse()) {
        if (Vssd *h = vssds_.get(gsb->harvestVssd()))
            h->ftl().removeExternalSource(gsb);
        gsb->release();
    } else {
        pool_.remove(gsb);
    }

    Vssd *home = vssds_.get(gsb->homeVssd());

    // Sweep the stripes so every block becomes reclaimable: untouched
    // open blocks return immediately (no wear); partially-written open
    // blocks are closed so GC can take them as victims.
    std::uint64_t released = 0;
    std::vector<std::tuple<ChannelId, ChipId, BlockId>> to_release;
    for (auto &stripe : gsb->superblock().stripes()) {
        for (const auto &[chip, blk] : stripe.blocks) {
            const FlashBlock &fb =
                dev_.chip(stripe.channel, chip).block(blk);
            if (fb.state == BlockState::kOpen) {
                if (fb.write_ptr == 0)
                    to_release.emplace_back(stripe.channel, chip, blk);  // fleetio-analyze: allow(hot-alloc): bounded by stripe blocks, per gSB reclaim
                else
                    dev_.durableClose(stripe.channel, chip, blk);
            }
        }
    }
    for (const auto &[ch, chip, blk] : to_release) {
        dev_.durableRelease(ch, chip, blk);
        vssds_.hbt().clear(ch, chip, blk);
        block_to_gsb_.erase(blockKey(ch, chip, blk));
        gsb->detachBlock(ch, chip, blk);
        ++released;
    }
    if (home != nullptr && released > 0)
        home->ftl().onBlocksReclaimed(released);

    if (gsb->liveBlocks() == 0) {
        ++reclaimed_;
        eraseGsbRecord(gsb->id());
        return;
    }

    // The remaining blocks are HBT-marked; the home GC prioritizes
    // them and migrates valid data back to its owner (Fig. 9).
    if (home != nullptr)
        home->gc().requestReclaim();
}

void
GsbManager::eraseGsbRecord(GsbId id)
{
    gsbs_.erase(id);
}

bool
GsbManager::revokeUnderPressure(VssdId home_id)
{
    Vssd *home = vssds_.get(home_id);
    if (home == nullptr)
        return false;
    if (home->ftl().freeQuotaRatio() >= kDonorPressureRatio)
        return false;

    bool revoked_any = false;

    // Phase 1: destroy unharvested pool gSBs. Pure metadata — blocks
    // return to the free pool instantly, so this works even when the
    // home is wedged at zero free blocks and GC cannot find a
    // relocation target.
    std::vector<Gsb *> pool_gsbs;
    // fleetio-analyze: allow(determinism-taint): collected set is sorted by gSB id before any effect
    for (auto &[id, g] : gsbs_) {
        if (g->homeVssd() == home_id && !g->reclaiming() && !g->inUse())
            // fleetio-analyze: allow(hot-alloc): bounded by live gSB count, runs per pressure revoke
            pool_gsbs.push_back(g.get());
    }
    // Map order must not decide which gSBs revoke (or the trace-event
    // order): fix it by id.
    std::sort(pool_gsbs.begin(), pool_gsbs.end(),
              [](Gsb *a, Gsb *b) { return a->id() < b->id(); });
    for (Gsb *g : pool_gsbs) {
        if (!pool_.remove(g))
            continue;
        probeGsb(obs::TraceEventType::kGsbRevoke, home_id, *g);
        destroyUnharvestedAfterPoolRemove(g);
        ++revoked_;
        revoked_any = true;
        if (home->ftl().freeQuotaRatio() >= kDonorPressureRatio)
            return true;
    }

    // Phase 2: still under pressure — reclaim in-use gSBs lazily.
    // Detaching the harvester's write path is immediate; the blocks
    // drain back through the home GC's HBT-prioritized victims.
    std::vector<Gsb *> in_use;
    // fleetio-analyze: allow(determinism-taint): collected set is sorted by id tiebreak before any effect
    for (auto &[id, g] : gsbs_) {
        if (g->homeVssd() == home_id && !g->reclaiming() && g->inUse())
            // fleetio-analyze: allow(hot-alloc): bounded by live gSB count, runs per pressure revoke
            in_use.push_back(g.get());
    }
    // Emptiest first: cheapest copyback frees quota soonest. Ties
    // break by id so map order never reaches the reclaim sequence.
    std::sort(in_use.begin(), in_use.end(), [this](Gsb *a, Gsb *b) {
        const auto av = a->validPages(dev_), bv = b->validPages(dev_);
        return av != bv ? av < bv : a->id() < b->id();
    });
    for (Gsb *g : in_use) {
        probeGsb(obs::TraceEventType::kGsbRevoke, home_id, *g);
        reclaimLazily(g);
        ++revoked_;
        revoked_any = true;
    }
    if (revoked_any)
        home->gc().requestReclaim();
    return revoked_any;
}

void
GsbManager::makeHarvestable(VssdId home_id, double gsb_bw_mbps)
{
    if (PowerLossInjector *p = dev_.powerLoss()) {
        p->notifyPhase(CrashPhase::kMakeHarvestable);
        if (p->crashed())
            return;  // power died at this donation boundary
    }
    Vssd *home = vssds_.get(home_id);
    if (home == nullptr)
        return;

    // Graceful degradation: a donor in capacity distress reclaims its
    // donations before reconciling toward any new harvestable level.
    if (revokeUnderPressure(home_id))
        return;

    const std::uint32_t target = bwToChannels(gsb_bw_mbps);

    // §3.6 reclaiming: in-use gSBs wider than the new harvestable level
    // are reclaimed lazily — the home GC migrates their valid data back
    // to the harvesting vSSD's own blocks. We restrict this to *spent*
    // gSBs so a transient dip in the advertised level does not yank
    // actively-used write capacity back and forth (actively-useful
    // gSBs retire through the spent path or home GC pressure anyway).
    std::vector<Gsb *> oversize;
    for (auto &[id, g] : gsbs_) {
        if (g->homeVssd() == home_id && g->inUse() && !g->reclaiming() &&
            g->spent() && g->numChannels() > target) {
            // fleetio-analyze: allow(hot-alloc): bounded by live gSB count, runs per harvest-level change
            oversize.push_back(g.get());
        }
    }
    std::sort(oversize.begin(), oversize.end(),
              [](Gsb *a, Gsb *b) { return a->id() < b->id(); });
    for (Gsb *g : oversize)
        reclaimLazily(g);

    std::uint32_t current = donatedChannels(home_id);

    if (current > target) {
        // Shrink the advertised supply: destroy unharvested pool gSBs
        // (instant — no data movement), largest first. In-use gSBs are
        // already-granted capacity and retire through the spent path.
        std::vector<Gsb *> avail;
        for (auto &[id, g] : gsbs_) {
            if (g->homeVssd() == home_id && !g->reclaiming() &&
                !g->inUse()) {
                // fleetio-analyze: allow(hot-alloc): bounded by live gSB count, runs per harvest-level change
                avail.push_back(g.get());
            }
        }
        std::sort(avail.begin(), avail.end(), [](Gsb *a, Gsb *b) {
            return a->numChannels() != b->numChannels()
                       ? a->numChannels() > b->numChannels()
                       : a->id() < b->id();
        });
        for (Gsb *g : avail) {
            if (current <= target)
                break;
            const std::uint32_t n = g->numChannels();
            if (!pool_.remove(g))
                continue;  // raced with a harvester; skip
            destroyUnharvestedAfterPoolRemove(g);
            current = current >= n ? current - n : 0;
        }
        return;
    }

    if (current < target) {
        if (createGsb(*home, target - current) == nullptr) {
            // Creation blocked — usually quota headroom. Recycle the
            // emptiest spent gSB (cheapest copyback) so a later window
            // can restock the supply; lazy reclamation keeps new data
            // spread (and its read bandwidth shared) as long as the
            // home has room.
            Gsb *cheapest = nullptr;
            std::uint64_t cheapest_valid = 0;
            for (auto &[id, g] : gsbs_) {
                if (g->homeVssd() != home_id || g->reclaiming() ||
                    !g->spent()) {
                    continue;
                }
                const std::uint64_t v = g->validPages(dev_);
                if (cheapest == nullptr || v < cheapest_valid) {
                    cheapest = g.get();
                    cheapest_valid = v;
                }
            }
            if (cheapest != nullptr)
                reclaimLazily(cheapest);
        }
    }
}

std::uint32_t
GsbManager::forceReleaseHeld(VssdId harvester_id)
{
    std::vector<Gsb *> held;
    // fleetio-analyze: allow(determinism-taint): collected set is sorted by gSB id before any effect
    for (auto &[id, g] : gsbs_) {
        if (g->inUse() && g->harvestVssd() == harvester_id &&
            !g->reclaiming()) {
            // fleetio-analyze: allow(hot-alloc): bounded by live gSB count, runs per forced release
            held.push_back(g.get());
        }
    }
    // Release in id order: the trace/attribution stream must not
    // depend on unordered_map layout.
    std::sort(held.begin(), held.end(),
              [](Gsb *a, Gsb *b) { return a->id() < b->id(); });
    std::uint32_t channels = 0;
    for (Gsb *g : held) {
        channels += g->numChannels();
        probeGsb(obs::TraceEventType::kGsbForceRelease, harvester_id, *g);
        // reclaimLazily detaches the harvester's write path right away
        // (no new data lands in the gSB) and releases never-written
        // blocks instantly; the rest drain through the home GC.
        reclaimLazily(g);
        ++force_released_;
    }
    return channels;
}

std::uint32_t
GsbManager::retireDonor(VssdId home_id)
{
    std::uint32_t torn_down = 0;

    // Unharvested pool gSBs first: instant metadata-only destruction,
    // blocks return to the free pool with no data movement.
    std::vector<Gsb *> pool_gsbs;
    // fleetio-analyze: allow(determinism-taint): collected set is sorted by gSB id before any effect
    for (auto &[id, g] : gsbs_) {
        if (g->homeVssd() == home_id && !g->reclaiming() && !g->inUse())
            // fleetio-analyze: allow(hot-alloc): bounded by live gSB count, runs per donor retirement
            pool_gsbs.push_back(g.get());
    }
    std::sort(pool_gsbs.begin(), pool_gsbs.end(),
              [](Gsb *a, Gsb *b) { return a->id() < b->id(); });
    for (Gsb *g : pool_gsbs) {
        if (!pool_.remove(g))
            continue;
        destroyUnharvestedAfterPoolRemove(g);
        ++torn_down;
    }

    // In-use gSBs: detach each harvester's write path immediately so no
    // new foreign data lands on the departing tenant's channels; the
    // already-written blocks drain through the home GC (the retirement
    // scrub keeps requestReclaim() asserted until they are gone).
    std::vector<Gsb *> in_use;
    // fleetio-analyze: allow(determinism-taint): collected set is sorted by gSB id before any effect
    for (auto &[id, g] : gsbs_) {
        if (g->homeVssd() == home_id && !g->reclaiming())
            // fleetio-analyze: allow(hot-alloc): bounded by live gSB count, runs per donor retirement
            in_use.push_back(g.get());
    }
    std::sort(in_use.begin(), in_use.end(),
              [](Gsb *a, Gsb *b) { return a->id() < b->id(); });
    for (Gsb *g : in_use) {
        reclaimLazily(g);
        ++torn_down;
    }
    return torn_down;
}

bool
GsbManager::hasGsbsForHome(VssdId home_id) const
{
    // fleetio-analyze: allow(determinism-taint): order-insensitive existence check
    for (const auto &[id, g] : gsbs_) {
        if (g->homeVssd() == home_id)
            return true;
    }
    return false;
}

std::uint32_t
GsbManager::harvest(VssdId harvester_id, double gsb_bw_mbps)
{
    if (PowerLossInjector *p = dev_.powerLoss()) {
        p->notifyPhase(CrashPhase::kHarvest);
        if (p->crashed())
            return 0;  // power died at this harvest boundary
    }
    Vssd *harvester = vssds_.get(harvester_id);
    if (harvester == nullptr)
        return 0;
    const std::uint32_t target = bwToChannels(gsb_bw_mbps);
    std::uint32_t current = heldChannels(harvester_id);

    // Harvest() only ramps holdings up toward the target. Harvested
    // capacity retires through the home side: home GC pressure or a
    // reduced Make_Harvestable level (the paper's reclamation paths) —
    // releasing on every demand dip would drag data back and forth.
    while (current < target) {
        Gsb *g = pool_.acquire(target - current, harvester_id);
        if (g == nullptr)
            break;
        g->markHarvested(harvester_id);
        harvester->ftl().addExternalSource(g);
        current += g->numChannels();
        ++harvested_;
        probeGsb(obs::TraceEventType::kGsbHarvest, harvester_id, *g);
    }
    return current;
}

void
GsbManager::onBlockErased(ChannelId ch, ChipId chip, BlockId blk)
{
    auto it = block_to_gsb_.find(blockKey(ch, chip, blk));
    if (it == block_to_gsb_.end())
        return;
    const GsbId id = it->second;
    block_to_gsb_.erase(it);

    auto git = gsbs_.find(id);
    if (git == gsbs_.end())
        return;
    Gsb *g = git->second.get();
    g->detachBlock(ch, chip, blk);
    if (g->liveBlocks() == 0) {
        // Fully reclaimed: detach everywhere and drop the record.
        if (g->inUse()) {
            if (Vssd *h = vssds_.get(g->harvestVssd()))
                h->ftl().removeExternalSource(g);
            g->release();
        } else if (!g->reclaiming()) {
            pool_.remove(g);
        }
        ++reclaimed_;
        eraseGsbRecord(id);
    }
}

void
GsbManager::destroyUnharvestedAfterPoolRemove(Gsb *gsb)
{
    Vssd *home = vssds_.get(gsb->homeVssd());
    std::uint64_t returned = 0;
    for (const auto &stripe : gsb->superblock().stripes()) {
        for (const auto &[chip, blk] : stripe.blocks) {
            const FlashBlock &fb =
                dev_.chip(stripe.channel, chip).block(blk);
            vssds_.hbt().clear(stripe.channel, chip, blk);
            block_to_gsb_.erase(blockKey(stripe.channel, chip, blk));
            if (fb.state == BlockState::kOpen && fb.write_ptr == 0) {
                dev_.durableRelease(stripe.channel, chip, blk);
            } else {
                dev_.durableErase(stripe.channel, chip, blk);
            }
            ++returned;
        }
    }
    if (home != nullptr && returned > 0)
        home->ftl().onBlocksReclaimed(returned);
    ++reclaimed_;
    probeGsb(obs::TraceEventType::kGsbDestroy, gsb->homeVssd(), *gsb);
    eraseGsbRecord(gsb->id());
}

}  // namespace fleetio
