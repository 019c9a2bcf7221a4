// Multi-host scenario harness: the pair rig every sharded scenario shares.
//
// A ClusterHarness owns a sim::Cluster and one ClusterShard per host pair
// (engine, observers, two hosts with one NIC each, the intra-pair link, one
// bound process per host, the seeded fault injector). Scenarios derive
// their per-pair state from ClusterShard, then: build it and arm_chaos();
// wire_ring() (pair i's host a to pair (i+1)%P's host b, across shards);
// spawn their set-up coroutines and run_sequential() them in exact global
// order; spawn the workload and run() it in parallel (which also merges
// the observers); and build the digest around digest().
//
// Teardown contract: pair i's cross-engine ring link holds a Resource on
// pair (i+1)%P's engine, so shards destroyed front to back would let the
// last ring deregister from pair 0's dead engine. ~ClusterHarness first
// calls every shard's release_ring(), then drops every ring connection and
// link while all engines live, then destroys the shards (scenario members
// before base members, the engine last). No output depends on it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "fault/plan.hpp"
#include "sim/cluster.hpp"

namespace e2e {
namespace check { class Auditor; }
namespace fault { class FaultInjector; }
namespace numa { class Host; class Process; }
namespace rdma { class ConnectedPair; class Device; }
namespace stats { class Registry; }
namespace trace { class Tracer; }
}  // namespace e2e

namespace e2e::exp {

/// Outputs every multi-host scenario reports, whatever its workload.
struct ClusterResult {
  bool complete = true;
  bool audit_ok = true;
  std::size_t audit_violations = 0;
  std::uint64_t sim_events = 0;   // parallel-phase events, all shards
  std::uint64_t windows = 0;      // conservative lookahead windows
  std::uint64_t cross_posts = 0;  // messages through the shard merge
  double wall_seconds = 0.0;      // parallel phase only
  std::string stats_json;  // merged e2e-stats-cluster-v1 (params.stats)
  std::string trace_json;  // merged Chrome trace (fleet's params.trace)
  /// One-line fingerprint of every deterministic output (plus FNV hashes
  /// of the JSON dumps); bit-identical across shard counts.
  std::string digest;
};

/// One host pair on its own engine shard.
struct ClusterShard {
  ClusterShard();
  virtual ~ClusterShard();
  ClusterShard(const ClusterShard&) = delete;
  ClusterShard& operator=(const ClusterShard&) = delete;

  /// Drops scenario endpoints riding the ring; called on every shard
  /// before any ring connection is destroyed.
  virtual void release_ring() {}

  sim::Engine eng;
  std::unique_ptr<stats::Registry> stats;
  std::unique_ptr<trace::Tracer> tracer;
  std::unique_ptr<check::Auditor> audit;
  std::unique_ptr<numa::Host> a, b;
  std::unique_ptr<rdma::Device> da, db;
  std::unique_ptr<net::Link> link;  // intra-pair, single-engine
  std::unique_ptr<numa::Process> pa, pb;
  std::unique_ptr<fault::FaultInjector> inj;
  std::unique_ptr<net::Link> ring_link;  // a -> next pair's b, cross-shard
  std::unique_ptr<rdma::ConnectedPair> ring_cp;
};

struct ClusterSpec {
  const char* scenario = "";  // error-message prefix
  int pairs = 1;
  int shards = 1;  // worker threads driving the shards
  bool audit = true;
  bool stats = false;
  bool trace = false;
  // Entity names feed stats_fnv, so each scenario keeps its own: pair i's
  // hosts are tag+i+host_a / host_b, its processes tag+i+proc_a / proc_b,
  // its link tag+i+link, and its ring link ring+i.
  std::string tag, host_a, host_b, proc_a, proc_b, link, ring;
  std::unique_ptr<net::Link> (*make_link)(sim::Engine&,
                                          const std::string&) = nullptr;
  std::unique_ptr<net::Link> (*make_ring_link)(
      sim::Engine&, sim::Engine&, const std::string&) = nullptr;
};

class ClusterHarness {
 public:
  /// Builds one shard per pair from `make_shard` (the scenario's subclass).
  /// Throws std::invalid_argument unless 1 <= shards <= pairs.
  ClusterHarness(const ClusterSpec& spec,
                 const std::function<std::unique_ptr<ClusterShard>()>&
                     make_shard);
  ~ClusterHarness();
  ClusterHarness(const ClusterHarness&) = delete;
  ClusterHarness& operator=(const ClusterHarness&) = delete;

  [[nodiscard]] int pairs() const noexcept {
    return static_cast<int>(shards_.size());
  }
  template <class S>
  [[nodiscard]] S& shard(int i) const {
    return static_cast<S&>(*shards_[static_cast<std::size_t>(i)]);
  }

  /// Arms pair i's seeded chaos plan (seed fault_seed + 1000003·i) against
  /// its intra-pair link. A zero fault_seed arms nothing. Chaos stays
  /// shard-local, so fault timing never depends on the worker count.
  void arm_chaos(int i, std::uint64_t fault_seed,
                 const fault::FaultPlan::RandomParams& rp,
                 std::function<void(int)> on_qp_kill,
                 std::function<void(int, sim::SimDuration)> on_crash = {});

  /// Links pair i's host a to pair (i+1)%P's host b with a ring link and
  /// connection, then calls endpoints(i, (i+1)%P) for the scenario's side.
  void wire_ring(const std::function<void(int, int)>& endpoints);

  /// Runs the set-up coroutines in exact global order; throws
  /// std::runtime_error unless established(i) holds for every pair.
  void run_sequential(const std::function<bool(int)>& established);

  /// The timed parallel phase, then the merge: fills the wall/event/
  /// window/post counters, folds the split ring ledgers (rank order),
  /// finalizes the auditors and merges the stats/trace shards into `out`.
  void run(ClusterResult& out);

  /// head + " events=… windows=… cross=… t=[…] <label>=[%.9g,…]" + tail,
  /// then the stats/trace JSON hashes when captured.
  [[nodiscard]] std::string digest(std::string_view head,
                                   const ClusterResult& out,
                                   std::string_view label,
                                   const std::vector<double>& per_pair,
                                   std::string_view tail = {}) const;

 private:
  ClusterSpec spec_;
  sim::Cluster cluster_;
  std::vector<std::unique_ptr<ClusterShard>> shards_;
};

}  // namespace e2e::exp
