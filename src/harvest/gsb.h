/**
 * @file
 * Ghost superblock (gSB): the paper's harvesting abstraction (Fig. 7).
 * A gSB is a harvestable superblock striped over n_chls channels of its
 * home vSSD; a harvesting vSSD plugs it into its FTL as extra write
 * capacity, sharing the underlying channels' bandwidth.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "src/sim/types.h"
#include "src/ssd/ftl.h"
#include "src/ssd/superblock.h"

namespace fleetio {

using GsbId = std::uint64_t;

/**
 * Ghost superblock metadata + physical backing.
 *
 * Mirrors the paper's struct gSB: n_chls, capacity, in_use, home_vssd,
 * harvest_vssd — with the Superblock providing the actual blocks and the
 * per-channel write cursors that implement the block-level mapping.
 */
class Gsb : public ExternalWriteSource
{
  public:
    Gsb(GsbId id, Superblock sb, VssdId home);

    GsbId id() const { return id_; }

    /** Number of channels the gSB stripes across (list index). */
    std::uint32_t numChannels() const { return sb_.numChannels(); }

    /** Capacity in bytes (n_chls x minimum superblock size initially). */
    std::uint64_t capacityBytes() const { return sb_.capacityBytes(); }

    /** vSSD that donated the blocks. */
    VssdId homeVssd() const { return home_; }

    /** vSSD currently harvesting, or kNoVssd. */
    VssdId harvestVssd() const { return harvester_; }

    /** Is the gSB currently harvested? */
    bool inUse() const { return in_use_; }

    /** Has lazy reclamation been requested? */
    bool reclaiming() const { return reclaiming_; }
    void setReclaiming() { reclaiming_ = true; }

    /** Fully written: offers no further write capacity but keeps
     *  sharing its channels' read bandwidth until reclaimed. */
    bool spent() const { return sb_.exhausted(); }

    /** Live (valid) pages across the gSB's blocks — the copyback cost
     *  of reclaiming it now. */
    std::uint64_t validPages(const FlashDevice &dev) const;

    /** Mark harvested by @p v. @pre !inUse(). */
    void markHarvested(VssdId v);

    /** Release the harvest (in_use = 0, harvester cleared). */
    void release();

    /** Blocks still physically attached (shrinks as GC erases them). */
    std::uint32_t liveBlocks() const { return live_blocks_; }

    /**
     * Detach an erased block from the stripe set. @return true when the
     * block belonged to this gSB.
     */
    bool detachBlock(ChannelId ch, ChipId chip, BlockId blk);

    /** Channels the stripes currently cover. */
    std::vector<ChannelId> channels() const { return sb_.channels(); }

    const Superblock &superblock() const { return sb_; }
    Superblock &superblock() { return sb_; }

    // --- ExternalWriteSource (harvester write path) -------------------

    bool allocatePage(Ppa &out) override;
    bool exhausted() const override;

  private:
    GsbId id_;
    Superblock sb_;
    VssdId home_;
    VssdId harvester_ = kNoVssd;
    bool in_use_ = false;
    bool reclaiming_ = false;
    std::uint32_t live_blocks_;
};

}  // namespace fleetio
