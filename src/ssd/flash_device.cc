#include "src/ssd/flash_device.h"

#include <cassert>

namespace fleetio {

FlashDevice::FlashDevice(const SsdGeometry &geo, EventQueue &eq)
    : geo_(geo), eq_(eq), channels_(geo.num_channels)
{
    assert(geo_.valid());
    chips_.reserve(std::size_t(geo.num_channels) * geo.chips_per_channel);
    for (std::uint32_t i = 0;
         i < geo.num_channels * geo.chips_per_channel; ++i) {
        chips_.emplace_back(geo_);
    }
    rmap_.resize(geo_.totalPages());
}

FlashChip &
FlashDevice::chip(ChannelId ch, ChipId c)
{
    return chips_[std::size_t(ch) * geo_.chips_per_channel + c];
}

const FlashChip &
FlashDevice::chip(ChannelId ch, ChipId c) const
{
    return chips_[std::size_t(ch) * geo_.chips_per_channel + c];
}

void
FlashDevice::maybeSlowDown(FlashChip &chp)
{
    if (injector_ != nullptr && injector_->chipSlowdownBegins()) {
        const FaultConfig &fc = injector_->config();
        chp.beginSlowdown(eq_.now() + fc.chip_slowdown_window,
                          fc.chip_slowdown_factor);
    }
}

SimTime
FlashDevice::reserveRead(Ppa ppa, bool host)
{
    const ChannelId ch = geo_.channelOf(ppa);
    const ChipId cp = geo_.chipOf(ppa);
    Channel &chan = channels_[ch];
    FlashChip &chp = chip(ch, cp);
    maybeSlowDown(chp);

    // Array read on the chip, then transfer over the bus. A read that
    // needs retries re-runs the array read with escalating latency
    // (retry k re-tunes the read reference and costs (k+1) x tR),
    // bounded by the injector's max_read_retries.
    SimTime array_time = geo_.read_latency;
    if (injector_ != nullptr) {
        const std::uint32_t retries = injector_->readRetries(blockOf(ppa));
        for (std::uint32_t k = 1; k <= retries; ++k)
            array_time += geo_.read_latency * (k + 1);
    }
    // Snapshot the accumulators *before* reserving: the attribution
    // hub derives the exact wait/service split from them (pure reads;
    // the run is byte-identical whether or not a hub consumes them).
    const SimTime chip_free = chp.busyUntil();
    const SimTime read_done = chp.reserve(eq_.now(), array_time);
    const SimTime xfer = geo_.pageTransferTime();
    const SimTime bus_free = chan.busBusyUntil();
    const SimTime complete = chan.reserveBus(read_done, xfer);
    chan.accountBusy(xfer);
    FLEETIO_PROBE(
        probe_,
        flashRead(ch, std::size_t(ch) * geo_.chips_per_channel + cp,
                  eq_.now(), chip_free, read_done,
                  array_time - geo_.read_latency, bus_free, complete,
                  !host));

    if (host) {
        chan.addOutstanding();
        ++host_reads_;
    } else {
        ++gc_reads_;
    }
    return complete;
}

SimTime
FlashDevice::issueProgramImpl(Ppa ppa, EventQueue::Callback done,
                              bool host)
{
    const ChannelId ch = geo_.channelOf(ppa);
    const ChipId cp = geo_.chipOf(ppa);
    Channel &chan = channels_[ch];
    FlashChip &chp = chip(ch, cp);
    maybeSlowDown(chp);

    // Transfer over the bus, then program into the array. The channel
    // dispatch slot frees once the bus transfer ends — the program
    // proceeds inside the chip, so programs pipeline across chips
    // while the bus keeps streaming (as on real hardware).
    const SimTime xfer = geo_.pageTransferTime();
    const SimTime bus_free = chan.busBusyUntil();
    const SimTime xfer_done = chan.reserveBus(eq_.now(), xfer);
    chan.accountBusy(xfer);
    const SimTime chip_free = chp.busyUntil();
    const SimTime complete = chp.reserve(xfer_done, geo_.program_latency);
    FLEETIO_PROBE(
        probe_,
        flashProgram(ch, std::size_t(ch) * geo_.chips_per_channel + cp,
                     eq_.now(), bus_free, xfer_done, chip_free, complete,
                     !host));

    if (host) {
        chan.addOutstanding();
        ++host_writes_;
        eq_.scheduleAt(xfer_done, [this, ch]() {
            channels_[ch].removeOutstanding();
            if (on_slot_freed_)
                on_slot_freed_(ch);
        });
    } else {
        ++gc_writes_;
    }
    eq_.scheduleAt(complete, std::move(done));
    return complete;
}

SimTime
FlashDevice::issueProgram(Ppa ppa, EventQueue::Callback done)
{
    return issueProgramImpl(ppa, std::move(done), /*host=*/true);
}

SimTime
FlashDevice::issueGcRead(Ppa ppa, EventQueue::Callback done)
{
    // No bookkeeping on completion: the callback is the event itself
    // (the event queue tolerates a null one).
    const SimTime complete = reserveRead(ppa, /*host=*/false);
    eq_.scheduleAt(complete, std::move(done));
    return complete;
}

SimTime
FlashDevice::issueGcProgram(Ppa ppa, EventQueue::Callback done)
{
    return issueProgramImpl(ppa, std::move(done), /*host=*/false);
}

SimTime
FlashDevice::issueErase(ChannelId ch, ChipId cp,
                        EventQueue::Callback done)
{
    FlashChip &chp = chip(ch, cp);
    maybeSlowDown(chp);
    const SimTime chip_free = chp.busyUntil();
    const SimTime complete = chp.reserve(eq_.now(), geo_.erase_latency);
    FLEETIO_PROBE(
        probe_,
        flashErase(ch, std::size_t(ch) * geo_.chips_per_channel + cp,
                   eq_.now(), chip_free, complete));
    ++erases_;
    eq_.scheduleAt(complete, std::move(done));
    return complete;
}

void
FlashDevice::setDurability(DurabilityModel *d)
{
    durability_ = d;
    for (ChannelId ch = 0; ch < geo_.num_channels; ++ch)
        for (ChipId c = 0; c < geo_.chips_per_channel; ++c)
            chip(ch, c).setDurability(d, ch, c);
}

void
FlashDevice::durableErase(ChannelId ch, ChipId cp, BlockId blk)
{
    if (crashedNow())
        return;
    chip(ch, cp).eraseBlock(blk);
    if (durability_ != nullptr)
        durability_->clearBlock(ch, cp, blk);
}

void
FlashDevice::durableRetire(ChannelId ch, ChipId cp, BlockId blk)
{
    if (crashedNow())
        return;
    chip(ch, cp).retireBlock(blk);
    // A crash scheduled at kGcRetire lands exactly here: the physical
    // retirement above survives (chip state is the medium) while the
    // durable record below is dropped by the freeze. Recovery treats
    // chip state as authoritative and retireBlock is idempotent, so a
    // replay never double-retires.
    if (power_loss_ != nullptr)
        power_loss_->notifyPhase(CrashPhase::kGcRetire);
    if (durability_ != nullptr && !crashedNow())
        durability_->markRetired(ch, cp, blk);
}

void
FlashDevice::durableRelease(ChannelId ch, ChipId cp, BlockId blk)
{
    if (crashedNow())
        return;
    chip(ch, cp).releaseBlock(blk);
    if (durability_ != nullptr)
        durability_->clearBlock(ch, cp, blk);
}

void
FlashDevice::durableClose(ChannelId ch, ChipId cp, BlockId blk)
{
    if (crashedNow())
        return;
    // Closing only freezes the write pointer — no durable metadata
    // changes; the wrapper exists so every block-lifecycle mutation
    // flows through one audited (R7) surface.
    chip(ch, cp).closeBlock(blk);
}

void
FlashDevice::crashReset()
{
    for (auto &chan : channels_)
        chan.crashReset();
    for (auto &chp : chips_)
        chp.crashResetValidBits();
    for (auto &e : rmap_)
        e = RmapEntry{};
    // Reservation accumulators just rewound to zero; stale occupancy
    // segments would otherwise blame post-recovery waits on pre-crash
    // tenants.
    FLEETIO_PROBE(probe_, flashCrash());
}

bool
FlashDevice::allocateBlock(ChannelId ch, VssdId owner, ChipId &chip_out,
                           BlockId &blk_out)
{
    // Prefer the chip with the most free blocks so programs spread over
    // chip-level parallelism and wear stays even.
    ChipId best = 0;
    std::uint32_t best_free = 0;
    for (ChipId c = 0; c < geo_.chips_per_channel; ++c) {
        const std::uint32_t f = chip(ch, c).freeBlocks();
        if (f > best_free) {
            best_free = f;
            best = c;
        }
    }
    if (best_free == 0)
        return false;
    const BlockId blk = chip(ch, best).allocateBlock(owner);
    assert(blk != UINT32_MAX &&
           "freeBlocks() promised a free block on the chosen chip");
    chip_out = best;
    blk_out = blk;
    return true;
}

std::uint64_t
FlashDevice::totalRetiredBlocks() const
{
    std::uint64_t total = 0;
    for (const auto &c : chips_)
        total += c.retiredBlocks();
    return total;
}

std::uint32_t
FlashDevice::retiredBlocksInChannel(ChannelId ch) const
{
    std::uint32_t total = 0;
    for (ChipId c = 0; c < geo_.chips_per_channel; ++c)
        total += chip(ch, c).retiredBlocks();
    return total;
}

double
FlashDevice::retiredRatio(ChannelId ch) const
{
    return double(retiredBlocksInChannel(ch)) /
           double(geo_.blocksPerChannel());
}

std::uint32_t
FlashDevice::freeBlocksInChannel(ChannelId ch) const
{
    std::uint32_t total = 0;
    for (ChipId c = 0; c < geo_.chips_per_channel; ++c)
        total += chip(ch, c).freeBlocks();
    return total;
}

double
FlashDevice::freeRatio(ChannelId ch) const
{
    return double(freeBlocksInChannel(ch)) / double(geo_.blocksPerChannel());
}

std::uint64_t
FlashDevice::totalFreeBlocks() const
{
    std::uint64_t total = 0;
    for (ChannelId ch = 0; ch < geo_.num_channels; ++ch)
        total += freeBlocksInChannel(ch);
    return total;
}

FlashBlock &
FlashDevice::blockOf(Ppa ppa)
{
    return chip(geo_.channelOf(ppa), geo_.chipOf(ppa))
        .block(geo_.blockOf(ppa));
}

const FlashBlock &
FlashDevice::blockOf(Ppa ppa) const
{
    return chip(geo_.channelOf(ppa), geo_.chipOf(ppa))
        .block(geo_.blockOf(ppa));
}

void
FlashDevice::invalidatePage(Ppa ppa)
{
    chip(geo_.channelOf(ppa), geo_.chipOf(ppa))
        .invalidatePage(geo_.blockOf(ppa), geo_.pageOf(ppa));
}

void
FlashDevice::revalidatePage(Ppa ppa)
{
    chip(geo_.channelOf(ppa), geo_.chipOf(ppa))
        .markValid(geo_.blockOf(ppa), geo_.pageOf(ppa));
}

double
FlashDevice::busUtilization(SimTime window) const
{
    if (window == 0)
        return 0.0;
    double busy = 0.0;
    for (const auto &c : channels_)
        busy += double(c.busyTime());
    return busy / (double(window) * double(geo_.num_channels));
}

void
FlashDevice::resetBusyWindow()
{
    for (auto &c : channels_)
        c.resetBusyTime();
}

double
FlashDevice::writeAmplification() const
{
    if (host_writes_ == 0)
        return 1.0;
    return double(host_writes_ + gc_writes_) / double(host_writes_);
}

}  // namespace fleetio
