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
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "metrics/cpu_usage.hpp"
#include "rftp/config.hpp"
#include "sim/time.hpp"
#include "stats/stats.hpp"
#include "trace/trace.hpp"

namespace e2e::exp {

/// Opt-in tracing for scenario runs, shared by the drivers.
///
/// When the environment names output files —
///   E2E_TRACE=out.json   Chrome/Perfetto trace-event JSON
///   E2E_REPORT=out.json  flat run report (.csv suffix -> CSV)
/// — constructing a ScopedTrace installs a tracer (plus a 10 ms resource
/// sampler) on `eng` and writes the file(s) on destruction. With neither
/// variable set no tracer is installed, so benchmark numbers are the
/// untraced numbers. Repeated scenario runs overwrite the same files; the
/// surviving trace describes the last run.
class ScopedTrace {
 public:
  explicit ScopedTrace(sim::Engine& eng) {
    const char* trace_file = std::getenv("E2E_TRACE");
    const char* report_file = std::getenv("E2E_REPORT");
    if (trace_file != nullptr) trace_file_ = trace_file;
    if (report_file != nullptr) report_file_ = report_file;
    if (trace_file_.empty() && report_file_.empty()) return;
    tracer_ = std::make_unique<trace::Tracer>(eng);
    tracer_->install();
    tracer_->enable_resource_sampler(10 * sim::kMillisecond);
  }
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;
  ~ScopedTrace() {
    if (!tracer_) return;
    tracer_->sample_now();
    if (!trace_file_.empty()) {
      std::ofstream os(trace_file_);
      if (os) tracer_->write_chrome_trace(os);
    }
    if (!report_file_.empty()) {
      std::ofstream os(report_file_);
      if (!os) return;
      if (report_file_.size() >= 4 &&
          report_file_.compare(report_file_.size() - 4, 4, ".csv") == 0)
        tracer_->write_report_csv(os);
      else
        tracer_->write_report_json(os);
    }
  }

  [[nodiscard]] trace::Tracer* get() noexcept { return tracer_.get(); }

 private:
  std::string trace_file_;
  std::string report_file_;
  std::unique_ptr<trace::Tracer> tracer_;
};

/// Always-on metric registry for scenario runs, shared by the drivers.
/// Constructing one installs a stats::Registry on `eng` (the stats hot
/// path is cheap enough to leave on under the timer, unlike the tracer);
/// when E2E_STATS names a file the aggregated dump is written on
/// destruction (.csv suffix -> CSV, else JSON). Drivers read latency
/// histograms back through get()/merged() so bench percentiles and
/// scenario percentiles come from the one stats::Histogram implementation.
class ScopedStats {
 public:
  explicit ScopedStats(sim::Engine& eng) : stats_(eng) {
    if (const char* p = std::getenv("E2E_STATS")) out_ = p;
    stats_.install();
  }
  ScopedStats(const ScopedStats&) = delete;
  ScopedStats& operator=(const ScopedStats&) = delete;
  ~ScopedStats() {
    stats_.uninstall();
    if (out_.empty()) return;
    std::ofstream os(out_);
    if (!os) return;
    if (out_.size() >= 4 && out_.compare(out_.size() - 4, 4, ".csv") == 0)
      stats_.write_csv(os);
    else
      stats_.write_json(os);
  }

  [[nodiscard]] stats::Registry* get() noexcept { return &stats_; }
  /// All entities' `name` histograms merged into one distribution.
  [[nodiscard]] stats::Histogram merged(std::string_view name) const {
    return stats_.merged_histogram(name);
  }

 private:
  std::string out_;
  stats::Registry stats_;
};

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
