// Payload-identity checksums for end-to-end integrity verification.
//
// The simulation moves no real bytes, so integrity is modelled over payload
// *identity*: every logical unit of data (a 512-byte SCSI block, an RFTP
// block at a file offset) has a deterministic FNV-1a tag derived from its
// coordinates. Tags are XOR-composable — the tag of a range is the XOR of
// its units' tags — so chunked, reordered and multi-path transfers all
// compose to the same value, while a missing, duplicated or misdirected
// chunk perturbs it. Data paths carry tags alongside transfers
// (rdma::SendWr::content_tag, rftp::DataHeader::checksum) and sinks verify
// them against the analytically-known expected value.
//
// Tag math is on the per-command hot path (a 1 MiB WRITE tags 2048 blocks,
// at several protocol layers), so the FNV prefixes over domain-separation
// constants are folded into precomputed seeds — same values, half the
// rounds — and the layered recomputation of one command's range tag is
// served from a small memo table (block_range_tag_cached).
#pragma once

#include <cstdint>
#include <string_view>

namespace e2e::fault {

inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// Continues an FNV-1a hash over the 8 little-endian bytes of `x`.
[[nodiscard]] constexpr std::uint64_t fnv64_seeded(std::uint64_t h,
                                                   std::uint64_t x) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xFF;
    h *= kFnvPrime;
  }
  return h;
}

/// FNV-1a over the bytes of `s` (digest hashes of JSON dumps).
[[nodiscard]] constexpr std::uint64_t fnv1a(std::string_view s) noexcept {
  std::uint64_t h = kFnvOffset;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

/// FNV-1a over the 8 little-endian bytes of `x`.
[[nodiscard]] constexpr std::uint64_t fnv64(std::uint64_t x) noexcept {
  return fnv64_seeded(kFnvOffset, x);
}

/// FNV-1a over the concatenation of two words (order-sensitive mix).
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t a,
                                            std::uint64_t b) noexcept {
  return fnv64_seeded(fnv64_seeded(kFnvOffset, a), b);
}

namespace detail {
/// mix64's first word is the fixed domain constant for SCSI block tags;
/// its 8 rounds are folded into this seed at compile time.
inline constexpr std::uint64_t kBlockTagSeed =
    fnv64_seeded(kFnvOffset, 0x5C51B10CULL);  // "scsi block"
}  // namespace detail

/// Tag of one 512-byte logical block at `lba`. Domain-separated from raw
/// fnv64 so LBA tags never collide with offset-derived tags.
[[nodiscard]] constexpr std::uint64_t block_tag(std::uint64_t lba) noexcept {
  return fnv64_seeded(detail::kBlockTagSeed, lba);
}

/// XOR-composed tag of `blocks` consecutive logical blocks starting at
/// `lba`. block_range_tag(l, m) ^ block_range_tag(l + m, n) ==
/// block_range_tag(l, m + n), so any chunking of an I/O composes.
[[nodiscard]] constexpr std::uint64_t block_range_tag(
    std::uint64_t lba, std::uint32_t blocks) noexcept {
  std::uint64_t t = 0;
  for (std::uint32_t i = 0; i < blocks; ++i) t ^= block_tag(lba + i);
  return t;
}

/// block_range_tag through a thread-local memo table. One command's range
/// tag is needed at every layer it crosses (initiator content tag, target
/// staging tag, LUN write ledger); the first layer computes it, the rest
/// hit the memo. Values are identical to block_range_tag — the cache only
/// short-circuits recomputation, so determinism is unaffected.
[[nodiscard]] inline std::uint64_t block_range_tag_cached(
    std::uint64_t lba, std::uint32_t blocks) noexcept {
  struct Entry {
    std::uint64_t lba = ~0ULL;
    std::uint32_t blocks = 0;
    std::uint64_t tag = 0;
  };
  // Direct-mapped, sized for the handful of commands in flight at once.
  static thread_local Entry cache[64];
  Entry& e = cache[(lba ^ blocks) & 63];
  if (e.lba != lba || e.blocks != blocks) {
    e.lba = lba;
    e.blocks = blocks;
    e.tag = block_range_tag(lba, blocks);
  }
  return e.tag;
}

/// Tag of one RFTP block: `bytes` of payload at byte `offset` of the
/// transfer, carried in rftp::DataHeader::checksum and XOR-accumulated into
/// the sink digest.
[[nodiscard]] constexpr std::uint64_t rftp_block_tag(
    std::uint64_t offset, std::uint64_t bytes) noexcept {
  return mix64(0x2F7BULL ^ fnv64(offset), bytes);  // "rftp"
}

}  // namespace e2e::fault
