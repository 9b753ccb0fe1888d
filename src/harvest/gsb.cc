#include "src/harvest/gsb.h"

#include <cassert>

namespace fleetio {

Gsb::Gsb(GsbId id, Superblock sb, VssdId home)
    : id_(id), sb_(std::move(sb)), home_(home),
      live_blocks_(sb_.numBlocks())
{
}

void
Gsb::markHarvested(VssdId v)
{
    assert(!in_use_);
    assert(v != home_ && "a vSSD must not harvest its own gSB");
    in_use_ = true;
    harvester_ = v;
}

void
Gsb::release()
{
    in_use_ = false;
    harvester_ = kNoVssd;
}

bool
Gsb::detachBlock(ChannelId ch, ChipId chip, BlockId blk)
{
    for (auto &stripe : sb_.stripes()) {
        if (stripe.channel != ch)
            continue;
        for (std::size_t i = 0; i < stripe.blocks.size(); ++i) {
            if (stripe.blocks[i].first == chip &&
                stripe.blocks[i].second == blk) {
                stripe.blocks.erase(stripe.blocks.begin() +
                                    std::ptrdiff_t(i));
                if (i < stripe.cursor && stripe.cursor > 0)
                    --stripe.cursor;
                assert(live_blocks_ > 0);
                --live_blocks_;
                return true;
            }
        }
    }
    return false;
}

std::uint64_t
Gsb::validPages(const FlashDevice &dev) const
{
    std::uint64_t total = 0;
    for (const auto &stripe : sb_.stripes()) {
        for (const auto &[chip, blk] : stripe.blocks)
            total += dev.chip(stripe.channel, chip).block(blk).valid_count;
    }
    return total;
}

bool
Gsb::allocatePage(Ppa &out)
{
    if (!in_use_)
        return false;
    return sb_.allocatePage(out);
}

bool
Gsb::exhausted() const
{
    return !in_use_ || sb_.exhausted();
}

}  // namespace fleetio
