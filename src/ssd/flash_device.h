/**
 * @file
 * The simulated open-channel SSD: chips + channel buses + the timing rules
 * for read/program/erase, plus device-wide free-block pools and the
 * physical-to-logical reverse map that GC needs.
 */
#pragma once

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

// fleetio-lint: allow(layering): instrumentation is deliberately
// cross-layer — a null-guarded probe + macros that compile out (§9).
#include "src/obs/probe.h"
#include "src/sim/event_queue.h"
#include "src/sim/types.h"
#include "src/ssd/channel.h"
#include "src/ssd/fault_injector.h"
#include "src/ssd/flash_chip.h"
#include "src/ssd/geometry.h"
#include "src/ssd/power_loss.h"

namespace fleetio {

/**
 * Reverse-map entry: which vSSD's logical page currently lives at a PPA.
 * Valid only while the page's bitmap bit is set.
 */
struct RmapEntry
{
    VssdId data_vssd = kNoVssd;
    Lpa lpa = kNoLpa;
};

/**
 * The device model.
 *
 * Timing: a read occupies the target chip for read_latency and then the
 * channel bus for one page-transfer; a program occupies the bus first and
 * then the chip for program_latency; an erase occupies only the chip.
 * Chips overlap behind a serialized bus, so sustained per-channel
 * throughput converges to the bus bandwidth (64 MB/s by default),
 * matching the paper's per-channel bandwidth assumption.
 *
 * State (block bitmaps, write pointers) is mutated eagerly by the FTL/GC;
 * this class adds the time dimension and completion callbacks.
 */
class FlashDevice
{
  public:
    using SlotFreedFn = InlineFunction<void(ChannelId), 24>;

    FlashDevice(const SsdGeometry &geo, EventQueue &eq);

    const SsdGeometry &geometry() const { return geo_; }
    EventQueue &eventQueue() { return eq_; }

    FlashChip &chip(ChannelId ch, ChipId c);
    const FlashChip &chip(ChannelId ch, ChipId c) const;
    Channel &channel(ChannelId ch) { return channels_[ch]; }
    const Channel &channel(ChannelId ch) const { return channels_[ch]; }

    // --- Timing operations ------------------------------------------

    /**
     * Issue a page read at @p ppa. Counts against the channel's
     * outstanding ops until completion, when @p done (a callable or
     * nullptr) runs. The completion event is built around @p done's
     * own type, so the device's bookkeeping and the caller's callable
     * share one inline Callback. @return completion time.
     */
    template <typename F>
    SimTime issueRead(Ppa ppa, F &&done);

    /**
     * Issue a page program at @p ppa (placement already chosen). This
     * and the calls below take the event queue's own Callback, which
     * becomes the completion event as-is (never wrapped in a second
     * type-erased callable). @return completion time.
     */
    SimTime issueProgram(Ppa ppa, EventQueue::Callback done);

    /**
     * Issue a block erase. Chip-only occupancy; does not change block
     * state — the caller erases metadata in @p done.
     * @return completion time.
     */
    SimTime issueErase(ChannelId ch, ChipId chip,
                       EventQueue::Callback done);

    /**
     * Internal (GC) variants: same timing, but not counted against the
     * channel queue depth — copyback traffic competes for the bus and
     * chip directly, modelling GC interference with host I/O.
     */
    SimTime issueGcRead(Ppa ppa, EventQueue::Callback done);
    SimTime issueGcProgram(Ppa ppa, EventQueue::Callback done);

    /** True when the channel can accept another host op (QD limit). */
    bool canDispatch(ChannelId ch) const
    {
        return channels_[ch].outstanding() < geo_.max_queue_depth;
    }

    /**
     * Hook invoked whenever a channel dispatch slot frees up before
     * the op's completion callback (write transfers end while the
     * program continues in-chip). The I/O scheduler uses it to pump.
     */
    void setOnSlotFreed(SlotFreedFn cb) { on_slot_freed_ = std::move(cb); }

    // --- Fault injection -----------------------------------------------

    /**
     * Install a fault oracle (nullptr = perfect device, the default).
     * Reads consult it for retry counts (each retry re-occupies the
     * chip with escalating latency), every chip operation may open a
     * slow-down window, and the FTL/GC consult it for program/erase
     * failures through this accessor.
     */
    void setFaultInjector(FaultInjector *fi) { injector_ = fi; }
    FaultInjector *faultInjector() { return injector_; }

    // --- Instrumentation -----------------------------------------------

    /**
     * Install the instrumentation probe (nullptr = observability off,
     * the default). Every subsystem holding a device reference reaches
     * it through probe(); with none each FLEETIO_PROBE site is a single
     * null-pointer test.
     */
    void setProbe(obs::Probe *p) { probe_ = p; }
    obs::Probe *probe() const { return probe_; }

    // --- Durability / power loss ---------------------------------------

    /**
     * Install the durability model (nullptr = no crash modelling, the
     * default — byte-identical to builds without the subsystem). The
     * device is the durability hub exactly as it is the probe hub:
     * FTL, GC, and the gSB manager reach it through durability(), and
     * every chip gets a backpointer so block opens write their durable
     * summary automatically.
     */
    void setDurability(DurabilityModel *d);
    DurabilityModel *durability() const { return durability_; }

    /** Install the power-loss injector (nullptr = never crashes). */
    void setPowerLoss(PowerLossInjector *p) { power_loss_ = p; }
    PowerLossInjector *powerLoss() const { return power_loss_; }

    /** Power is currently off: refuse physical mutations. */
    bool crashedNow() const
    {
        return power_loss_ != nullptr && power_loss_->crashed();
    }

    /**
     * Durable block-lifecycle mutations (lint rule R7): the only
     * sanctioned way for src/ssd and src/harvest code outside the
     * device/chip/durability core to erase, retire, release, or close a
     * block. Each wrapper performs the chip-state mutation and records
     * the matching durable-metadata update in one step, and refuses to
     * run once power is off — the in-flight callback that observed the
     * crash cannot mutate the (now frozen) medium.
     */
    void durableErase(ChannelId ch, ChipId chip, BlockId blk);
    void durableRetire(ChannelId ch, ChipId chip, BlockId blk);
    void durableRelease(ChannelId ch, ChipId chip, BlockId blk);
    void durableClose(ChannelId ch, ChipId chip, BlockId blk);

    /**
     * Discard every volatile device structure after a crash: the
     * reverse map, all valid bitmaps/counts (rebuilt from the recovered
     * L2P map), and per-channel bus/outstanding timing state. Chip
     * block states, write pointers, erase counts, and bad-block tables
     * survive — they are the physical medium.
     */
    void crashReset();

    /** Blocks retired (bad-block tables) across the whole device. */
    std::uint64_t totalRetiredBlocks() const;

    /** Retired blocks on one channel. */
    std::uint32_t retiredBlocksInChannel(ChannelId ch) const;

    /** Retired-block fraction of a channel in [0,1]. */
    double retiredRatio(ChannelId ch) const;

    // --- Block pool ---------------------------------------------------

    /**
     * Allocate a free block on @p ch for @p owner, preferring the chip
     * with the most free blocks (wear/parallelism spreading).
     * @return encoded (chip, block) via out-params; false if the channel
     *         has no free block.
     */
    bool allocateBlock(ChannelId ch, VssdId owner, ChipId &chip_out,
                       BlockId &blk_out);

    /** Free blocks remaining on a channel. */
    std::uint32_t freeBlocksInChannel(ChannelId ch) const;

    /** Free-block fraction of a channel in [0,1]. */
    double freeRatio(ChannelId ch) const;

    /** Device-wide free blocks. */
    std::uint64_t totalFreeBlocks() const;

    // --- Page state helpers --------------------------------------------

    FlashBlock &blockOf(Ppa ppa);
    const FlashBlock &blockOf(Ppa ppa) const;

    /** Mark the page at @p ppa invalid (overwrite / trim). */
    void invalidatePage(Ppa ppa);

    /** Recovery: re-set the valid bit of a recovered mapping's page. */
    void revalidatePage(Ppa ppa);

    /** Reverse-map access. */
    RmapEntry &rmap(Ppa ppa) { return rmap_[ppa]; }
    const RmapEntry &rmap(Ppa ppa) const { return rmap_[ppa]; }

    /**
     * Record that @p lpa of @p vssd now lives at @p ppa (called by the
     * FTL right after programNextPage chose the page).
     */
    void setRmap(Ppa ppa, VssdId vssd, Lpa lpa)
    {
        rmap_[ppa] = RmapEntry{vssd, lpa};
    }

    // --- Utilization accounting ----------------------------------------

    /**
     * Bus utilization across all channels since the last resetWindow, in
     * [0,1]: total bus-busy time / (channels x elapsed).
     */
    double busUtilization(SimTime window) const;

    /** Clear per-window busy-time counters. */
    void resetBusyWindow();

    /** Lifetime op counters. */
    std::uint64_t hostReads() const { return host_reads_; }
    std::uint64_t hostWrites() const { return host_writes_; }
    std::uint64_t gcReads() const { return gc_reads_; }
    std::uint64_t gcWrites() const { return gc_writes_; }
    std::uint64_t erases() const { return erases_; }

    /** Write amplification: (host + gc writes) / host writes. */
    double writeAmplification() const;

  private:
    /**
     * Reserve the chip and bus for a page read and count it (a host
     * read also takes a channel dispatch slot). @return completion time.
     */
    SimTime reserveRead(Ppa ppa, bool host);
    SimTime issueProgramImpl(Ppa ppa, EventQueue::Callback done,
                             bool host);

    /** Consult the injector for a slow-down window on @p chp. */
    void maybeSlowDown(FlashChip &chp);

    SsdGeometry geo_;
    EventQueue &eq_;
    FaultInjector *injector_ = nullptr;
    obs::Probe *probe_ = nullptr;
    DurabilityModel *durability_ = nullptr;
    PowerLossInjector *power_loss_ = nullptr;
    SlotFreedFn on_slot_freed_;
    std::vector<Channel> channels_;
    std::vector<FlashChip> chips_;  // [channel * chips_per_channel + chip]
    std::vector<RmapEntry> rmap_;

    std::uint64_t host_reads_ = 0;
    std::uint64_t host_writes_ = 0;
    std::uint64_t gc_reads_ = 0;
    std::uint64_t gc_writes_ = 0;
    std::uint64_t erases_ = 0;
};

template <typename F>
SimTime
FlashDevice::issueRead(Ppa ppa, F &&done)
{
    const ChannelId ch = geo_.channelOf(ppa);
    const SimTime complete = reserveRead(ppa, /*host=*/true);
    if constexpr (std::is_null_pointer_v<std::decay_t<F>>) {
        eq_.scheduleAt(complete,
                       [this, ch] { channels_[ch].removeOutstanding(); });
    } else {
        auto event = [this, ch, cb = std::forward<F>(done)]() mutable {
            channels_[ch].removeOutstanding();
            cb();
        };
        static_assert(EventQueue::Callback::fitsInline<decltype(event)>(),
                      "host-read completion must fit a Callback inline");
        eq_.scheduleAt(complete, std::move(event));
    }
    return complete;
}

}  // namespace fleetio
