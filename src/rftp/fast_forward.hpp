// Hybrid fluid/event fast-forward: collapse steady-state bulk phases into
// closed-form spans (the --fast-forward path).
//
// A bulk transfer spends almost all of its simulated events in a perfectly
// periodic steady state: every credit token cycles through the same
// fill → write → drain → re-grant loop with the same latencies, and every
// per-block side effect (byte ledgers, stats counters, CPU charges) repeats
// with the same deltas. Simulating those events one by one is pure
// repetition. The FastForward detector proves the repetition and then
// replaces the next k periods with their closed form.
//
// Detection — three-point delta-repeat verification:
//
//   1. Prefilter (O(1) per fresh drain): a ring of recent drain records
//      (stream, token, bytes, engine queue depth, virtual drain time) must
//      show the drain R back and 2R back identical in shape with equal time
//      gaps, where R = streams * credits_per_stream (the credit-rotation
//      period). A run of R consecutive passes arms the detector.
//   2. Armed, it snapshots the full observable state at drains n0 (A),
//      n0+R (B) and n0+2R (C): every stats:: counter/gauge/histogram, every
//      engine Resource's busy/units totals, the auditor's per-core
//      accounted-CPU arrays, both hosts' per-core CpuUsage, per-NUMA-queue
//      sizes, and the session's scalar counters.
//   3. Collapse requires D1 = B−A and D2 = C−B bitwise identical, zero
//      deltas on every perturbation counter (retransmissions, failovers,
//      crashes, ...), identical claim-decision patterns in both windows,
//      and the quiet guards below. Anything off → drop back to event-exact.
//
// Collapse: pick k so every NUMA queue keeps a generous margin, then for
// each of k periods re-run the recorded claim pattern through the *real*
// decide_claim policy (verifying each verdict; a mismatch or a partial
// final block undoes the period and truncates k), apply each popped block's
// drain in closed form (ledger bit, XOR digest, delivered bytes, WaitGroup,
// throughput-meter sample at the pattern time + c*P, auditor block ledger),
// fold D2 * k into the stats registry / resources / CPU accounting /
// session scalars, advance checkpoint bookkeeping analytically, and finally
// Engine::skip_time(k*P). The event heap never moves: in-flight latency
// measurements stay event-exact, and the live pipeline resumes at the same
// event clock against the shifted work-point — exactly the state the
// event-exact run reaches at t + k*P (modulo which block indices are in
// flight, which no final metric observes).
//
// Quiet guards (checked at arm and re-checked at collapse): no tracer
// installed (traces are exempt from equivalence and would diverge), no
// Cluster shard, virtual time past the attached fault plan's quiet horizon
// (every scripted fault has fired and settled), no crash/resume/failover
// in progress, and no grant-retry pacing delay pending.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "metrics/cpu_usage.hpp"
#include "rftp/session.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"
#include "stats/registry.hpp"

namespace e2e::rftp {

class FastForward {
 public:
  explicit FastForward(RftpSession& sess);
  FastForward(const FastForward&) = delete;
  FastForward& operator=(const FastForward&) = delete;

  /// Called by RftpSession::claim_block with the verdict it is about to
  /// apply; the detector records the pattern for window comparison and
  /// replay.
  void on_claim(numa::NodeId node, const RftpSession::ClaimDecision& d);

  /// Called by the drainer after every fresh drain's side effects have
  /// landed (the only safe collapse point). Runs the prefilter, advances
  /// the armed state machine, and — when a steady state is proven —
  /// performs the collapse synchronously before returning.
  void on_fresh_drain(const int stream_id, std::uint32_t token,
                      std::uint64_t bytes, sim::SimTime drained_at);

  /// Any perturbation (failover, crash, requeue) drops the detector back to
  /// event-exact; it may re-arm once stability re-proves itself.
  void disarm() noexcept {
    state_ = State::kIdle;
    stable_run_ = 0;
  }

  // Engagement accounting for TransferResult / CLI summaries.
  [[nodiscard]] std::uint64_t spans() const noexcept { return spans_; }
  [[nodiscard]] std::uint64_t blocks_collapsed() const noexcept {
    return blocks_;
  }
  [[nodiscard]] sim::SimDuration skipped() const noexcept { return skipped_; }

 private:
  struct DrainRec {
    int stream = 0;
    std::uint32_t token = 0;
    std::uint64_t bytes = 0;
    std::size_t queue_depth = 0;  // engine event-heap population at the hook
    sim::SimTime at = 0;          // virtual drain-record time
    [[nodiscard]] bool same_shape(const DrainRec& o) const noexcept {
      return stream == o.stream && token == o.token && bytes == o.bytes &&
             queue_depth == o.queue_depth;
    }
  };
  struct ClaimRec {
    numa::NodeId node = 0;
    RftpSession::ClaimDecision d;
    bool operator==(const ClaimRec&) const = default;
  };

  /// Full observable-state snapshot at a fresh-drain boundary.
  struct Snap {
    bool have_stats = false;
    stats::Registry::FfSnapshot reg;
    std::vector<sim::Resource*> res;  // engine registry, construction order
    std::vector<sim::SimDuration> busy;
    std::vector<double> units;
    bool have_audit = false;
    std::vector<const sim::Resource*> cpu_cores;
    std::vector<sim::SimDuration> cpu;       // auditor accounted, flattened
    std::vector<sim::SimDuration> usage;     // host CpuUsage, flattened
    std::vector<std::size_t> qsize;          // per-NUMA block queue sizes
    std::uint64_t control_msgs = 0;
    std::uint64_t grant_seq = 0;
    std::vector<std::uint64_t> next_wr;      // per stream
    std::vector<std::uint32_t> login_gen;    // per stream (delta must be 0)
    std::uint64_t perturb[8] = {};           // must not move at all
    std::uint64_t claims_seen = 0;           // claim count at snapshot time
  };

  [[nodiscard]] bool quiet_ok() const noexcept;
  void take_snapshot(Snap& out) const;
  /// Full D1 == D2 verification across a_, b_, c_. On success fills the
  /// reusable D2 members used by the apply step.
  [[nodiscard]] bool deltas_match();
  /// Periods safely collapsible given the post-C queue sizes; 0 = bail.
  [[nodiscard]] std::uint64_t pick_k() const;
  void collapse();
  void undo_claim(const RftpSession::ClaimDecision& d, std::uint64_t idx);

  RftpSession& sess_;
  sim::Engine& eng_;
  std::size_t period_ = 1;  // R: fresh drains per steady-state period
  std::size_t cap_ = 0;     // ring capacity (> 4R)
  std::vector<DrainRec> drains_;   // ring, indexed by n_drains_ % cap_
  std::vector<ClaimRec> claims_;   // ring, indexed by n_claims_ % cap_
  std::vector<metrics::CpuUsage*> usage_objs_;  // both hosts' cores
  std::uint64_t n_drains_ = 0;
  std::uint64_t n_claims_ = 0;
  std::uint64_t stable_run_ = 0;
  std::uint64_t cooldown_until_ = 0;  // drain count gating the next arm

  enum class State : std::uint8_t { kIdle, kArmedB, kArmedC };
  State state_ = State::kIdle;
  std::uint64_t arm_drain_ = 0;  // n_drains_ at snapshot A
  Snap a_, b_, c_;
  stats::Registry::FfSnapshot d2_reg_;      // verified per-period stats delta
  std::vector<sim::SimDuration> d2_cpu_;    // verified per-period CPU delta

  std::uint64_t spans_ = 0;
  std::uint64_t blocks_ = 0;
  sim::SimDuration skipped_ = 0;
};

}  // namespace e2e::rftp
