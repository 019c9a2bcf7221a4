// Experiment drivers for the paper's figures, shared by the bench mains and
// the paper-shape tests.
//
// Each function runs one of the paper's scenarios on a fresh testbed and
// returns the measurements the corresponding figure reports. The bench
// binaries wrap these in google-benchmark timers and print paper-vs-
// measured tables; tests/integration/paper_results_test.cpp asserts the
// paper's shapes on the same calls, so both check one configuration.
#pragma once

#include <cstdint>
#include <vector>

#include "metrics/cpu_usage.hpp"
#include "rftp/config.hpp"
#include "sim/time.hpp"
#include "stats/stats.hpp"

namespace e2e::exp {

// --- §2.3 motivating experiment ---
struct MotivatingResult {
  double stream_local_gBps = 0.0;   // paper: 50 GB/s
  double stream_interleaved_gBps = 0.0;
  double iperf_gbps = 0.0;          // paper: 83.5 default / 91.8 tuned
  metrics::CpuUsage host_usage;     // per host over `window`
  double copy_share = 0.0;          // paper: copy routines ~35% of CPU
  sim::SimDuration window = 0;
};
MotivatingResult run_motivating(bool numa_tuned,
                                sim::SimDuration duration = 3 * sim::kSecond);

// --- Fig. 4 cost breakdown at ~39 Gbps ---
struct CostBreakdown {
  double gbps = 0.0;
  metrics::CpuUsage both_ends;  // sum over sender + receiver
  sim::SimDuration window = 0;
};
CostBreakdown run_fig4_rftp(std::uint64_t bytes = 12ull << 30);
CostBreakdown run_fig4_tcp(sim::SimDuration duration = 3 * sim::kSecond);

// --- Figs. 7/8 iSER fio sweep ---
struct IserPoint {
  double gbps = 0.0;
  double target_cpu_pct = 0.0;
  metrics::CpuUsage target_usage;
  std::uint64_t ios = 0;
};
IserPoint run_iser_point(bool numa_tuned, bool write, std::uint64_t block,
                         int threads_per_lun = 4,
                         sim::SimDuration duration = 2 * sim::kSecond);

// --- Figs. 9-12 end-to-end ---
struct E2eResult {
  rftp::TransferResult transfer;
  std::vector<double> series_gbps;    // 1-second bins
  metrics::CpuUsage src_usage;
  metrics::CpuUsage dst_usage;
  sim::SimDuration window = 0;
  double path_limit_gbps = 94.8;      // paper's fio write limit
  // Simulator cost of the run (wall-clock mode): how many engine events the
  // scenario dispatched and how long the host CPU took to chew through them.
  std::uint64_t sim_events = 0;
  double wall_seconds = 0.0;
  // Block drain latency across all streams (empty for scenarios without a
  // stats registry, e.g. GridFTP which has no RFTP drain path).
  stats::Histogram drain_hist;
};
E2eResult run_e2e_rftp(std::uint64_t dataset, bool numa_tuned = true);
E2eResult run_e2e_gridftp(std::uint64_t dataset, int processes = 4);

struct BidirResult {
  double aggregate_gbps = 0.0;       // both directions
  double unidirectional_gbps = 0.0;  // same testbed, one direction
  double improvement = 0.0;          // aggregate / unidirectional - 1
  metrics::CpuUsage src_usage;       // "source" host during bidir
  sim::SimDuration window = 0;
};
BidirResult run_e2e_rftp_bidir(std::uint64_t dataset_per_direction);
BidirResult run_e2e_gridftp_bidir(std::uint64_t dataset_per_direction,
                                  int processes = 4);

// --- Figs. 13/14 WAN ---
struct WanPoint {
  double gbps = 0.0;
  double sender_cpu_pct = 0.0;    // user-space protocol CPU, sender host
  double receiver_cpu_pct = 0.0;
  double utilization = 0.0;       // of the 40G line
};
WanPoint run_wan_point(int streams, std::uint64_t block,
                       std::uint64_t dataset = 16ull << 30,
                       int credits = 16);

}  // namespace e2e::exp
