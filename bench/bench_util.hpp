// Output helpers shared by the bench binaries.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "metrics/cpu_usage.hpp"
#include "metrics/table.hpp"
#include "stats/histogram.hpp"

namespace e2e::bench {

/// Appends one `label: count/mean/p50/p90/p99/p999` row per histogram to
/// `t` — the single percentile-summary formatter every bench shares (the
/// math itself lives in stats::Histogram).
inline void add_hist_rows(
    metrics::Table& t,
    const std::vector<std::pair<std::string, const stats::Histogram*>>& hists,
    double scale = 1e-3, int digits = 1) {
  for (const auto& [label, h] : hists) {
    if (h == nullptr || h->count() == 0) continue;
    auto n = [&](std::uint64_t v) {
      return metrics::Table::num(static_cast<double>(v) * scale, digits);
    };
    t.row({label, std::to_string(h->count()), n(static_cast<std::uint64_t>(h->mean())),
           n(h->p50()), n(h->p90()), n(h->p99()), n(h->p999())});
  }
}

/// Prints a percentile table for a set of named latency histograms
/// (values scaled by `scale`; the default renders ns as us).
inline void print_hist_percentiles(
    const std::string& title,
    const std::vector<std::pair<std::string, const stats::Histogram*>>&
        hists,
    double scale = 1e-3, int digits = 1) {
  metrics::Table t(title);
  t.header({"metric", "count", "mean", "p50", "p90", "p99", "p999"});
  add_hist_rows(t, hists, scale, digits);
  std::fputs(t.to_string().c_str(), stdout);
  std::fputc('\n', stdout);
}

/// Wall-clock mode output: collects per-scenario simulator-cost rows
/// (events dispatched, host seconds, events/s) and writes them as JSON to
/// the path named by E2E_BENCH_JSON. With the variable unset it is inert.
/// The schema matches the committed BENCH_simcore.json perf baseline so CI
/// artifacts and the in-repo before/after table stay comparable.
class SimCostJson {
 public:
  SimCostJson() {
    if (const char* p = std::getenv("E2E_BENCH_JSON")) path_ = p;
  }
  SimCostJson(const SimCostJson&) = delete;
  SimCostJson& operator=(const SimCostJson&) = delete;

  /// `lat` (optional): a latency histogram whose p50/p90/p99/p999 ride
  /// along in the row, e.g. RFTP block drain latency.
  void add(const std::string& name, std::uint64_t sim_events,
           double wall_seconds, double gbps = 0.0,
           const stats::Histogram* lat = nullptr) {
    rows_.push_back({name, sim_events, wall_seconds, gbps,
                     lat != nullptr ? *lat : stats::Histogram{}});
  }

  ~SimCostJson() {
    if (path_.empty() || rows_.empty()) return;
    std::ofstream os(path_);
    if (!os) return;
    os << "{\n  \"benchmarks\": [\n";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      const double eps =
          r.wall_seconds > 0.0
              ? static_cast<double>(r.sim_events) / r.wall_seconds
              : 0.0;
      os << "    {\"name\": \"" << r.name << "\", \"sim_events\": "
         << r.sim_events << ", \"wall_seconds\": " << r.wall_seconds
         << ", \"events_per_second\": " << eps << ", \"goodput_gbps\": "
         << r.gbps;
      if (r.lat.count() > 0)
        os << ", \"lat_p50_ns\": " << r.lat.p50() << ", \"lat_p90_ns\": "
           << r.lat.p90() << ", \"lat_p99_ns\": " << r.lat.p99()
           << ", \"lat_p999_ns\": " << r.lat.p999();
      os << "}" << (i + 1 < rows_.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
  }

 private:
  struct Row {
    std::string name;
    std::uint64_t sim_events;
    double wall_seconds;
    double gbps;
    stats::Histogram lat;  // empty when the row carries no latency data
  };
  std::string path_;
  std::vector<Row> rows_;
};

struct PaperRow {
  std::string label;
  double paper = 0.0;     // value reported in the paper (0 = not reported)
  double measured = 0.0;  // value this reproduction measured
  std::string unit;
};

/// Prints a paper-vs-measured table with relative deltas.
inline void print_comparison(const std::string& title,
                             const std::vector<PaperRow>& rows) {
  metrics::Table t(title);
  t.header({"metric", "paper", "measured", "delta", "unit"});
  for (const auto& r : rows) {
    std::string delta = "-";
    if (r.paper != 0.0)
      delta = metrics::Table::num(100.0 * (r.measured - r.paper) / r.paper, 1) +
              "%";
    t.row({r.label,
           r.paper != 0.0 ? metrics::Table::num(r.paper, 1) : std::string("-"),
           metrics::Table::num(r.measured, 1), delta, r.unit});
  }
  std::fputs(t.to_string().c_str(), stdout);
  std::fputc('\n', stdout);
}

/// Formats a CPU usage breakdown as one table row set.
inline void print_cpu_breakdown(const std::string& title,
                                const metrics::CpuUsage& u,
                                sim::SimDuration window) {
  using metrics::CpuCategory;
  metrics::Table t(title);
  t.header({"category", "cpu%"});
  for (auto c : {CpuCategory::kUserProto, CpuCategory::kKernelProto,
                 CpuCategory::kCopy, CpuCategory::kLoad,
                 CpuCategory::kOffload, CpuCategory::kOther})
    t.row({std::string(metrics::to_string(c)),
           metrics::Table::num(u.percent(c, window), 1)});
  t.row({"total", metrics::Table::num(u.total_percent(window), 1)});
  std::fputs(t.to_string().c_str(), stdout);
  std::fputc('\n', stdout);
}

}  // namespace e2e::bench
