// Fleet scenario: the sharded parallel engine's driving workload.
//
// `pairs` independent host pairs each run one RFTP transfer on their own
// sim::Engine shard, plus a ring of cross-shard background RDMA Writes
// (pair i's sender host into pair (i+1)%pairs' receiver host) so the
// cluster's conservative-lookahead merge path carries real traffic every
// window. `shards` selects only the worker-thread count; the executed
// event schedule — and therefore every output — is bit-identical for any
// value (see sim/cluster.hpp for the argument).
#pragma once

#include <cstdint>
#include <vector>

#include "exp/cluster_harness.hpp"

namespace e2e::exp {

struct FleetParams {
  int pairs = 8;        // transfer pairs; one engine shard per pair
  int shards = 1;       // worker threads driving the shards
  std::uint64_t bytes_per_pair = 64ull << 20;
  std::uint64_t block_bytes = 1ull << 20;
  int streams = 3;  // >= 2 so chaos qp-kills have a failover target
  int credits = 8;
  int checkpoint_blocks = 1;
  std::uint64_t ring_messages = 32;  // cross-shard writes per pair
  std::uint64_t ring_msg_bytes = 1ull << 20;
  std::uint64_t fault_seed = 0;  // != 0: seeded per-pair chaos plans
  // Inert: sharded engines run under a Cluster, and RftpSession only
  // constructs the fast-forward detector on a single-engine run (skip_time
  // on a shard would break the conservative lookahead protocol). The CLI
  // rejects `fleet --fast-forward 1` rather than ignore it.
  bool fast_forward = false;
  bool audit = true;             // per-shard auditors + merged QP ledgers
  bool stats = false;            // capture merged stats JSON in the result
  bool trace = false;            // capture merged Chrome trace JSON
};

/// Shared fields (complete, audit, events, windows, wall time, stats and
/// trace JSON, digest) come from ClusterResult.
struct FleetResult : ClusterResult {
  double aggregate_gbps = 0.0;  // sum over pairs
  std::vector<double> pair_gbps;
  bool integrity_ok = true;
  std::uint64_t ring_completed = 0;  // cross-shard writes acknowledged
};

/// Throws std::invalid_argument unless 1 <= shards <= pairs.
FleetResult run_fleet(const FleetParams& p);

}  // namespace e2e::exp
