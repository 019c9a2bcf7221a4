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
// SCSI block tags telescope: block_tag(l) = g(l) ^ g(l + 1) for a keyed
// FNV hash g, so the XOR over any range collapses to its two endpoints and
// block_range_tag is O(1) however many blocks a command spans. A ledger's
// XOR still differs from the expected one exactly when the odd-multiplicity
// difference of the block multisets is non-empty, and a non-empty finite
// set of integers has a non-empty boundary, so detection keeps the 2^-64
// collision odds of a per-block XOR.
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
/// g(x): FNV-1a of `x` keyed by the SCSI block domain constant, whose 8
/// rounds are folded into this seed at compile time.
inline constexpr std::uint64_t kBlockTagSeed =
    fnv64_seeded(kFnvOffset, 0x5C51B10CULL);  // "scsi block"
[[nodiscard]] constexpr std::uint64_t block_edge(std::uint64_t x) noexcept {
  return fnv64_seeded(kBlockTagSeed, x);
}
}  // namespace detail

/// XOR-composed tag of `blocks` consecutive 512-byte logical blocks
/// starting at `lba`, in O(1); 0 for an empty range. Domain-separated from
/// raw fnv64 so LBA tags never collide with offset-derived tags.
/// block_range_tag(l, m) ^ block_range_tag(l + m, n) ==
/// block_range_tag(l, m + n), so any chunking of an I/O composes.
[[nodiscard]] constexpr std::uint64_t block_range_tag(
    std::uint64_t lba, std::uint32_t blocks) noexcept {
  return detail::block_edge(lba) ^ detail::block_edge(lba + blocks);
}

/// Tag of one logical block at `lba`; block_range_tag is the XOR of these.
[[nodiscard]] constexpr std::uint64_t block_tag(std::uint64_t lba) noexcept {
  return detail::block_edge(lba) ^ detail::block_edge(lba + 1);
}

/// Tag of one RFTP block: `bytes` of payload at byte `offset` of the
/// transfer, carried in rftp::DataHeader::checksum and XOR-accumulated into
/// the sink digest.
[[nodiscard]] constexpr std::uint64_t rftp_block_tag(
    std::uint64_t offset, std::uint64_t bytes) noexcept {
  return mix64(0x2F7BULL ^ fnv64(offset), bytes);  // "rftp"
}

}  // namespace e2e::fault
