#include "src/ssd/flash_chip.h"

#include <algorithm>
#include <cassert>

#include "src/ssd/durability.h"

namespace fleetio {

FlashChip::FlashChip(const SsdGeometry &geo)
    : geo_(geo),
      blocks_(geo.blocks_per_chip),
      free_blocks_(geo.blocks_per_chip)
{
    for (auto &b : blocks_)
        b.valid.assign(geo.pages_per_block, false);
}

BlockId
FlashChip::allocateBlock(VssdId owner)
{
    for (BlockId b = 0; b < blocks_.size(); ++b) {
        if (blocks_[b].state == BlockState::kFree) {
            blocks_[b].state = BlockState::kOpen;
            blocks_[b].owner = owner;
            blocks_[b].write_ptr = 0;
            blocks_[b].valid_count = 0;
            --free_blocks_;
            if (durability_ != nullptr)
                durability_->recordBlockOpen(ch_, chip_, b, owner);
            return b;
        }
    }
    return UINT32_MAX;
}

PageId
FlashChip::programNextPage(BlockId b)
{
    FlashBlock &blk = blocks_[b];
    assert(blk.state == BlockState::kOpen);
    assert(blk.write_ptr < geo_.pages_per_block);
    const PageId p = blk.write_ptr++;
    blk.valid[p] = true;
    ++blk.valid_count;
    if (blk.isFull(geo_.pages_per_block))
        blk.state = BlockState::kFull;
    return p;
}

void
FlashChip::invalidatePage(BlockId b, PageId p)
{
    FlashBlock &blk = blocks_[b];
    assert(p < blk.write_ptr);
    if (blk.valid[p]) {
        blk.valid[p] = false;
        assert(blk.valid_count > 0);
        --blk.valid_count;
    }
}

void
FlashChip::markValid(BlockId b, PageId p)
{
    FlashBlock &blk = blocks_[b];
    assert(p < blk.write_ptr &&
           "only physically programmed pages can be revalidated");
    if (!blk.valid[p]) {
        blk.valid[p] = true;
        ++blk.valid_count;
    }
}

void
FlashChip::eraseBlock(BlockId b)
{
    FlashBlock &blk = blocks_[b];
    assert(blk.state != BlockState::kFree);
    assert(blk.state != BlockState::kRetired &&
           "retired blocks must never be erased back into service");
    blk.state = BlockState::kFree;
    blk.owner = kNoVssd;
    blk.write_ptr = 0;
    blk.valid_count = 0;
    std::fill(blk.valid.begin(), blk.valid.end(), false);
    ++blk.erase_count;
    ++total_erases_;
    ++free_blocks_;
}

void
FlashChip::releaseBlock(BlockId b)
{
    FlashBlock &blk = blocks_[b];
    assert(blk.state == BlockState::kOpen && blk.write_ptr == 0);
    blk.state = BlockState::kFree;
    blk.owner = kNoVssd;
    blk.valid_count = 0;
    ++free_blocks_;
}

void
FlashChip::closeBlock(BlockId b)
{
    FlashBlock &blk = blocks_[b];
    if (blk.state == BlockState::kOpen)
        blk.state = BlockState::kFull;
}

void
FlashChip::retireBlock(BlockId b)
{
    FlashBlock &blk = blocks_[b];
    if (blk.state == BlockState::kRetired)
        return;  // idempotent: a replayed retirement must not re-count
    if (blk.state == BlockState::kFree) {
        assert(free_blocks_ > 0);
        --free_blocks_;
    }
    blk.state = BlockState::kRetired;
    blk.owner = kNoVssd;
    blk.write_ptr = 0;
    blk.valid_count = 0;
    std::fill(blk.valid.begin(), blk.valid.end(), false);
    // fleetio-analyze: allow(hot-alloc): a block retires at most once, on a fault or wear-out path
    bad_blocks_.push_back(b);
}

SimTime
FlashChip::reserve(SimTime earliest, SimTime duration)
{
    const SimTime start = std::max(earliest, busy_until_);
    if (start < slow_until_)
        duration = SimTime(double(duration) * slow_factor_);
    busy_until_ = start + duration;
    return busy_until_;
}

void
FlashChip::beginSlowdown(SimTime until, double factor)
{
    slow_until_ = std::max(slow_until_, until);
    slow_factor_ = factor > 1.0 ? factor : 1.0;
}

void
FlashChip::crashResetValidBits()
{
    for (auto &blk : blocks_) {
        std::fill(blk.valid.begin(), blk.valid.end(), false);
        blk.valid_count = 0;
    }
    busy_until_ = 0;
    slow_until_ = 0;
    slow_factor_ = 1.0;
}

}  // namespace fleetio
