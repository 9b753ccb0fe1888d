/** @file Unit tests for the per-vSSD FTL. */
#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "src/ssd/ftl.h"

namespace fleetio {
namespace {

class FtlTest : public ::testing::Test
{
  protected:
    FtlTest()
        : geo_(testGeometry()), dev_(geo_, eq_),
          ftl_(dev_, Ftl::Config{0, quota(), {0, 1, 2, 3}})
    {
    }

    std::uint64_t quota() const { return geo_.blocksPerChannel() * 4; }

    SsdGeometry geo_ = testGeometry();
    EventQueue eq_;
    FlashDevice dev_;
    Ftl ftl_;
};

TEST_F(FtlTest, LogicalCapacityLeavesOverprovisioning)
{
    const std::uint64_t physical_pages =
        quota() * geo_.pages_per_block;
    EXPECT_EQ(ftl_.logicalPages(),
              std::uint64_t(physical_pages * 0.8));
    EXPECT_EQ(ftl_.logicalBytes(),
              ftl_.logicalPages() * geo_.page_size);
}

TEST_F(FtlTest, WriteInstallsMappingAndRmap)
{
    Ppa ppa;
    ASSERT_TRUE(ftl_.allocateWrite(42, ppa));
    EXPECT_EQ(ftl_.lookup(42), ppa);
    EXPECT_EQ(dev_.rmap(ppa).data_vssd, 0u);
    EXPECT_EQ(dev_.rmap(ppa).lpa, 42u);
    EXPECT_EQ(ftl_.livePages(), 1u);
}

TEST_F(FtlTest, UnwrittenLpaLooksUpToNothing)
{
    EXPECT_EQ(ftl_.lookup(0), kNoPpa);
    EXPECT_EQ(ftl_.lookup(ftl_.logicalPages() + 10), kNoPpa);
}

TEST_F(FtlTest, OverwriteInvalidatesOldVersion)
{
    Ppa first, second;
    ASSERT_TRUE(ftl_.allocateWrite(7, first));
    ASSERT_TRUE(ftl_.allocateWrite(7, second));
    EXPECT_NE(first, second);
    EXPECT_EQ(ftl_.lookup(7), second);
    EXPECT_EQ(ftl_.livePages(), 1u);  // still one live page
    // Old physical page is invalid.
    const auto &blk = dev_.blockOf(first);
    EXPECT_FALSE(blk.valid[geo_.pageOf(first)]);
}

TEST_F(FtlTest, WritesStripeAcrossChannelsAndChips)
{
    std::set<ChannelId> channels;
    std::set<std::pair<ChannelId, ChipId>> points;
    for (Lpa lpa = 0; lpa < 64; ++lpa) {
        Ppa ppa;
        ASSERT_TRUE(ftl_.allocateWrite(lpa, ppa));
        channels.insert(geo_.channelOf(ppa));
        points.insert({geo_.channelOf(ppa), geo_.chipOf(ppa)});
    }
    EXPECT_EQ(channels.size(), 4u);  // all own channels used
    EXPECT_EQ(points.size(), 4u * geo_.chips_per_channel);
}

TEST_F(FtlTest, WritesStayOnOwnChannels)
{
    for (Lpa lpa = 0; lpa < 200; ++lpa) {
        Ppa ppa;
        ASSERT_TRUE(ftl_.allocateWrite(lpa, ppa));
        EXPECT_LE(geo_.channelOf(ppa), 3u);
    }
}

TEST_F(FtlTest, TrimFreesLogicalSpace)
{
    Ppa ppa;
    ASSERT_TRUE(ftl_.allocateWrite(5, ppa));
    ftl_.trim(5);
    EXPECT_EQ(ftl_.lookup(5), kNoPpa);
    EXPECT_EQ(ftl_.livePages(), 0u);
    // Trim of unmapped page is a no-op.
    ftl_.trim(5);
    EXPECT_EQ(ftl_.livePages(), 0u);
}

TEST_F(FtlTest, TrimAllClearsEverything)
{
    Ppa ppa;
    for (Lpa lpa = 0; lpa < 100; ++lpa)
        ASSERT_TRUE(ftl_.allocateWrite(lpa, ppa));
    ftl_.trimAll();
    EXPECT_EQ(ftl_.livePages(), 0u);
    for (Lpa lpa = 0; lpa < 100; ++lpa)
        EXPECT_EQ(ftl_.lookup(lpa), kNoPpa);
}

TEST_F(FtlTest, QuotaAccountingAndFreeRatio)
{
    EXPECT_EQ(ftl_.blocksUsed(), 0u);
    EXPECT_DOUBLE_EQ(ftl_.freeQuotaRatio(), 1.0);
    Ppa ppa;
    ASSERT_TRUE(ftl_.allocateWrite(0, ppa));
    // First write opens one block per touched write point.
    EXPECT_GE(ftl_.blocksUsed(), 1u);
    ftl_.onBlocksReclaimed(ftl_.blocksUsed());
    EXPECT_EQ(ftl_.blocksUsed(), 0u);
}

TEST_F(FtlTest, AvailableBytesShrinkWithLiveData)
{
    const std::uint64_t before = ftl_.availableBytes();
    Ppa ppa;
    ASSERT_TRUE(ftl_.allocateWrite(0, ppa));
    EXPECT_EQ(ftl_.availableBytes(), before - geo_.page_size);
}

TEST_F(FtlTest, RelocationStaysOnOwnChannels)
{
    Ppa ppa;
    ASSERT_TRUE(ftl_.allocateRelocation(ppa));
    EXPECT_LE(geo_.channelOf(ppa), 3u);
}

TEST_F(FtlTest, RemapRepointsWithoutTouchingLiveCount)
{
    Ppa ppa;
    ASSERT_TRUE(ftl_.allocateWrite(9, ppa));
    Ppa new_ppa;
    ASSERT_TRUE(ftl_.allocateRelocation(new_ppa));
    ftl_.remap(9, new_ppa);
    EXPECT_EQ(ftl_.lookup(9), new_ppa);
    EXPECT_EQ(ftl_.livePages(), 1u);
    EXPECT_EQ(dev_.rmap(new_ppa).lpa, 9u);
}

TEST_F(FtlTest, SetChannelsRedirectsNewWrites)
{
    Ppa ppa;
    ASSERT_TRUE(ftl_.allocateWrite(0, ppa));
    ftl_.setChannels({8, 9});
    for (Lpa lpa = 1; lpa < 50; ++lpa) {
        Ppa p;
        ASSERT_TRUE(ftl_.allocateWrite(lpa, p));
        EXPECT_TRUE(geo_.channelOf(p) == 8 || geo_.channelOf(p) == 9);
    }
    // Old data still readable at its old location.
    EXPECT_EQ(ftl_.lookup(0), ppa);
}

TEST_F(FtlTest, NeedsGcBelowThreshold)
{
    EXPECT_FALSE(ftl_.needsGc());
    // Consume quota down to below the 20 % free threshold.
    Ppa ppa;
    Lpa lpa = 0;
    while (ftl_.freeQuotaRatio() >= geo_.gc_free_threshold &&
           ftl_.allocateWrite(lpa++, ppa)) {
        if (lpa >= ftl_.logicalPages())
            break;
    }
    // The loop exits either by hitting the threshold or logical space.
    if (ftl_.freeQuotaRatio() < geo_.gc_free_threshold) {
        EXPECT_TRUE(ftl_.needsGc());
    }
}

/** A fake harvested write source for testing the external path. */
class FakeSource : public ExternalWriteSource
{
  public:
    FakeSource(FlashDevice &dev, ChannelId ch) : dev_(&dev), ch_(ch)
    {
        dev.allocateBlock(ch, 99, chip_, blk_);
    }

    bool
    allocatePage(Ppa &out) override
    {
        FlashChip &chp = dev_->chip(ch_, chip_);
        if (chp.block(blk_).isFull(dev_->geometry().pages_per_block))
            return false;
        const PageId pg = chp.programNextPage(blk_);
        out = dev_->geometry().makePpa(ch_, chip_, blk_, pg);
        ++allocated;
        return true;
    }

    bool
    exhausted() const override
    {
        return dev_->chip(ch_, chip_)
            .block(blk_)
            .isFull(dev_->geometry().pages_per_block);
    }

    std::uint32_t numChannels() const override { return 1; }

    int allocated = 0;

  private:
    FlashDevice *dev_;
    ChannelId ch_;
    ChipId chip_ = 0;
    BlockId blk_ = 0;
};

TEST_F(FtlTest, ProgramFailureRemapsWithoutLosingMapping)
{
    // Modest rate: each failure permanently burns a block (closed with
    // a dead page), and the fixture's quota has to outlast the burn.
    FaultConfig fc;
    fc.program_fail_prob = 0.1;
    FaultInjector fi(fc);
    dev_.setFaultInjector(&fi);

    const Lpa span = 300;
    for (Lpa lpa = 0; lpa < span; ++lpa) {
        Ppa ppa;
        ASSERT_TRUE(ftl_.allocateWrite(lpa, ppa));
        EXPECT_EQ(ftl_.lookup(lpa), ppa);
    }
    // Failures occurred and every one was repaired by re-allocating.
    EXPECT_GT(fi.counters().program_failures, 0u);
    EXPECT_EQ(ftl_.programFailRepairs(),
              fi.counters().program_failures);

    // No mapping lost: every LPA resolves to a valid page whose
    // reverse map points straight back.
    for (Lpa lpa = 0; lpa < span; ++lpa) {
        const Ppa ppa = ftl_.lookup(lpa);
        ASSERT_NE(ppa, kNoPpa);
        EXPECT_TRUE(dev_.blockOf(ppa).valid[geo_.pageOf(ppa)]);
        EXPECT_EQ(dev_.rmap(ppa).lpa, lpa);
        EXPECT_EQ(dev_.rmap(ppa).data_vssd, 0u);
    }
    dev_.setFaultInjector(nullptr);
}

TEST_F(FtlTest, ProgramFailureClosesTheFailedBlock)
{
    FaultConfig fc;
    fc.program_fail_prob = 1.0;  // clamped to 0.95: extreme failure
    FaultInjector fi(fc);
    dev_.setFaultInjector(&fi);

    // Under near-certain failure a write either succeeds (after
    // bounded re-allocation) or reports failure with the map
    // untouched — never a mapping to a dead page, never a hang.
    for (Lpa lpa = 0; lpa < 20; ++lpa) {
        Ppa ppa;
        if (ftl_.allocateWrite(lpa, ppa)) {
            EXPECT_EQ(ftl_.lookup(lpa), ppa);
            EXPECT_TRUE(dev_.blockOf(ppa).valid[geo_.pageOf(ppa)]);
        } else {
            EXPECT_EQ(ftl_.lookup(lpa), kNoPpa);
        }
    }
    EXPECT_GT(ftl_.programFailRepairs(), 0u);

    // Every block condemned by a failure stopped accepting data.
    for (ChannelId ch = 0; ch < geo_.num_channels; ++ch) {
        for (ChipId c = 0; c < geo_.chips_per_channel; ++c) {
            for (BlockId b = 0; b < geo_.blocks_per_chip; ++b) {
                const auto &fb = dev_.chip(ch, c).block(b);
                EXPECT_NE(fb.state, BlockState::kRetired);
                if (fb.state == BlockState::kFull) {
                    EXPECT_LE(fb.valid_count, fb.write_ptr);
                }
            }
        }
    }
    dev_.setFaultInjector(nullptr);

    // The device recovered: with faults gone (and the quota the burn
    // consumed handed back, standing in for a GC pass over the dead
    // blocks), writes succeed again.
    ftl_.onBlocksReclaimed(ftl_.blocksUsed());
    Ppa ppa;
    ASSERT_TRUE(ftl_.allocateWrite(0, ppa));
    EXPECT_EQ(ftl_.lookup(0), ppa);
}

TEST_F(FtlTest, ExternalSourceReceivesAShareOfWrites)
{
    FakeSource src(dev_, 10);  // channel outside the own set
    ftl_.addExternalSource(&src);
    Ppa ppa;
    for (Lpa lpa = 0; lpa < 60; ++lpa)
        ASSERT_TRUE(ftl_.allocateWrite(lpa, ppa));
    EXPECT_GT(src.allocated, 0);
    ftl_.removeExternalSource(&src);
    const int before = src.allocated;
    for (Lpa lpa = 60; lpa < 90; ++lpa)
        ASSERT_TRUE(ftl_.allocateWrite(lpa, ppa));
    EXPECT_EQ(src.allocated, before);
}

}  // namespace
}  // namespace fleetio
