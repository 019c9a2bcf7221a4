#include "fault/integrity.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

namespace e2e::fault {
namespace {

constexpr std::uint64_t kTop = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint32_t kMaxBlocks = std::numeric_limits<std::uint32_t>::max();

// The range tag is still usable in constant expressions.
static_assert(block_range_tag(0, 2048) ==
              (block_range_tag(0, 1000) ^ block_range_tag(1000, 1048)));
static_assert(block_range_tag(42, 0) == 0);
static_assert(block_tag(7) == block_range_tag(7, 1));

std::uint64_t naive_range_tag(std::uint64_t lba, std::uint32_t blocks) {
  std::uint64_t t = 0;
  for (std::uint32_t i = 0; i < blocks; ++i) t ^= block_tag(lba + i);
  return t;
}

TEST(BlockRangeTag, MatchesPerBlockXorForSmallRanges) {
  for (const std::uint64_t lba : {std::uint64_t{0}, std::uint64_t{1},
                                  std::uint64_t{8192}, kTop - 2048}) {
    std::uint64_t naive = 0;
    for (std::uint32_t n = 0; n <= 4096; ++n) {
      ASSERT_EQ(block_range_tag(lba, n), naive) << "lba " << lba << " n " << n;
      naive ^= block_tag(lba + n);
    }
  }
}

TEST(BlockRangeTag, MatchesPerBlockXorForSampledLargeRanges) {
  std::mt19937_64 rng(14);
  for (int i = 0; i < 6; ++i) {
    const std::uint64_t lba = rng();
    const auto n = static_cast<std::uint32_t>(4097 + rng() % (1u << 20));
    EXPECT_EQ(block_range_tag(lba, n), naive_range_tag(lba, n))
        << "lba " << lba << " n " << n;
  }
}

TEST(BlockRangeTag, ZeroBlocksIsZero) {
  for (const std::uint64_t lba : {std::uint64_t{0}, std::uint64_t{12345},
                                  kTop - 1, kTop})
    EXPECT_EQ(block_range_tag(lba, 0), 0u);
}

TEST(BlockRangeTag, ComposesOverEverySplitOfSmallRanges) {
  for (const std::uint64_t lba :
       {std::uint64_t{0}, std::uint64_t{977}, kTop - 40, kTop}) {
    for (std::uint32_t total = 0; total <= 64; ++total) {
      for (std::uint32_t m = 0; m <= total; ++m) {
        ASSERT_EQ(block_range_tag(lba, m) ^
                      block_range_tag(lba + m, total - m),
                  block_range_tag(lba, total))
            << "lba " << lba << " m " << m << " total " << total;
      }
    }
  }
}

TEST(BlockRangeTag, ComposesOverRandomSplitsUpToMaxBlocks) {
  std::mt19937_64 rng(2013);
  for (int i = 0; i < 10000; ++i) {
    // Every fourth range starts within 2^32 blocks of the top of the LBA
    // space, so its end wraps.
    const std::uint64_t lba = i % 4 == 0 ? kTop - (rng() & kMaxBlocks) : rng();
    const auto total = static_cast<std::uint32_t>(rng());
    const auto m =
        static_cast<std::uint32_t>(rng() % (std::uint64_t{total} + 1));
    ASSERT_EQ(block_range_tag(lba, m) ^ block_range_tag(lba + m, total - m),
              block_range_tag(lba, total))
        << "lba " << lba << " m " << m << " total " << total;
  }
  EXPECT_EQ(block_range_tag(kTop, 1) ^ block_range_tag(0, kMaxBlocks - 1),
            block_range_tag(kTop, kMaxBlocks));
}

// A 2048-block command delivered as eight 256-block chunks.
struct Chunk {
  std::uint64_t lba;
  std::uint32_t blocks;
};
constexpr std::uint64_t kCmdLba = 1u << 20;
constexpr std::uint32_t kCmdBlocks = 2048;
constexpr std::uint32_t kChunkBlocks = 256;

std::vector<Chunk> command_chunks() {
  std::vector<Chunk> chunks;
  for (std::uint32_t off = 0; off < kCmdBlocks; off += kChunkBlocks)
    chunks.push_back({kCmdLba + off, kChunkBlocks});
  return chunks;
}

std::uint64_t ledger(const std::vector<Chunk>& chunks) {
  std::uint64_t t = 0;
  for (const auto& c : chunks) t ^= block_range_tag(c.lba, c.blocks);
  return t;
}

TEST(BlockRangeTag, DetectsLostDuplicatedShiftedAndMisaddressedChunks) {
  const std::uint64_t expected = block_range_tag(kCmdLba, kCmdBlocks);
  const auto good = command_chunks();
  ASSERT_EQ(ledger(good), expected);
  for (std::size_t i = 0; i < good.size(); ++i) {
    auto lost = good;
    lost.erase(lost.begin() + static_cast<std::ptrdiff_t>(i));
    EXPECT_NE(ledger(lost), expected) << "lost chunk " << i;

    auto dup = good;
    dup.push_back(good[i]);
    EXPECT_NE(ledger(dup), expected) << "duplicated chunk " << i;

    for (const std::int64_t shift : {-1, 1}) {
      auto shifted = good;
      shifted[i].lba += static_cast<std::uint64_t>(shift);
      EXPECT_NE(ledger(shifted), expected)
          << "chunk " << i << " shifted by " << shift;
    }

    // Re-addressed to another command's range, and to another chunk's
    // range within this command (one range lost, another duplicated).
    auto moved = good;
    moved[i].lba += kCmdBlocks;
    EXPECT_NE(ledger(moved), expected) << "chunk " << i << " re-addressed";
    auto aliased = good;
    aliased[i].lba = good[(i + 1) % good.size()].lba;
    EXPECT_NE(ledger(aliased), expected) << "chunk " << i << " aliased";
  }
}

}  // namespace
}  // namespace e2e::fault
