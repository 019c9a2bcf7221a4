// Figs. 9 and 10: end-to-end throughput over time (Fig. 9) and the CPU
// breakdown of the same transfers (Fig. 10), RFTP vs GridFTP, across the
// full SAN -> 3x40G RoCE -> SAN path with XFS over iSER on both sides.
//
// Paper numbers: path limit 94.8 Gbps (fio write); RFTP 91 Gbps (96% of
// the limit); GridFTP 29 Gbps (~30%). The paper plots 25 minutes; this
// harness transfers a dataset sized for tens of simulated seconds — the
// steady-state level is the reproduced quantity. Fig. 10 shape:
// GridFTP's "sys" (kernel TCP/IP + copies) dominates its profile; RFTP
// spends its (much smaller) budget in user-space protocol and storage I/O.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>

#include "bench_util.hpp"
#include "exp/figures.hpp"
#include "metrics/table.hpp"

namespace e2e::bench {
namespace {

exp::E2eResult g_rftp, g_grid;

void BM_E2eRftp(benchmark::State& state) {
  for (auto _ : state) {
    g_rftp = exp::run_e2e_rftp(64ull << 30);
    benchmark::DoNotOptimize(g_rftp.transfer.goodput_gbps);
  }
  state.counters["Gbps"] = g_rftp.transfer.goodput_gbps;
  state.counters["src_cpu_pct"] =
      g_rftp.src_usage.total_percent(g_rftp.window);
}
BENCHMARK(BM_E2eRftp)->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_E2eGridFtp(benchmark::State& state) {
  for (auto _ : state) {
    g_grid = exp::run_e2e_gridftp(16ull << 30);
    benchmark::DoNotOptimize(g_grid.transfer.goodput_gbps);
  }
  state.counters["Gbps"] = g_grid.transfer.goodput_gbps;
  state.counters["src_cpu_pct"] =
      g_grid.src_usage.total_percent(g_grid.window);
}
BENCHMARK(BM_E2eGridFtp)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace e2e::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  using namespace e2e::bench;
  using e2e::metrics::CpuCategory;
  print_comparison(
      "Fig. 9 end-to-end throughput",
      {
          {"path limit (fio write)", 94.8, g_rftp.path_limit_gbps, "Gbps"},
          {"RFTP", 91.0, g_rftp.transfer.goodput_gbps, "Gbps"},
          {"RFTP share of path limit", 96.0,
           100.0 * g_rftp.transfer.goodput_gbps / g_rftp.path_limit_gbps,
           "%"},
          {"GridFTP", 29.0, g_grid.transfer.goodput_gbps, "Gbps"},
          {"RFTP / GridFTP", 3.1,
           g_rftp.transfer.goodput_gbps / g_grid.transfer.goodput_gbps, "x"},
      });

  // Throughput-over-time series (the figure's curves), 1-second bins.
  e2e::metrics::Table t("throughput over time (Gbps per 1 s bin)");
  t.header({"t(s)", "RFTP", "GridFTP"});
  const std::size_t bins =
      std::max(g_rftp.series_gbps.size(), g_grid.series_gbps.size());
  for (std::size_t i = 0; i < bins; ++i) {
    auto val = [](const std::vector<double>& v, std::size_t k) {
      return k < v.size() ? e2e::metrics::Table::num(v[k]) : std::string("-");
    };
    t.row({std::to_string(i), val(g_rftp.series_gbps, i),
           val(g_grid.series_gbps, i)});
  }
  std::fputs(t.to_csv().c_str(), stdout);

  // Per-block drain latency percentiles (stats::Histogram — the same
  // implementation every scenario report uses).
  print_hist_percentiles("RFTP block drain latency (us)",
                         {{"drain", &g_rftp.drain_hist}});

  // Wall-clock mode: report the simulator's own cost for each scenario and
  // emit machine-readable rows when E2E_BENCH_JSON names a file.
  std::printf("sim cost: rftp %llu events in %.3f s (%.2f Mev/s), "
              "gridftp %llu events in %.3f s (%.2f Mev/s)\n",
              static_cast<unsigned long long>(g_rftp.sim_events),
              g_rftp.wall_seconds,
              g_rftp.wall_seconds > 0.0
                  ? 1e-6 * static_cast<double>(g_rftp.sim_events) /
                        g_rftp.wall_seconds
                  : 0.0,
              static_cast<unsigned long long>(g_grid.sim_events),
              g_grid.wall_seconds,
              g_grid.wall_seconds > 0.0
                  ? 1e-6 * static_cast<double>(g_grid.sim_events) /
                        g_grid.wall_seconds
                  : 0.0);
  SimCostJson json;
  json.add("e2e_rftp_64GiB", g_rftp.sim_events, g_rftp.wall_seconds,
           g_rftp.transfer.goodput_gbps, &g_rftp.drain_hist);
  json.add("e2e_gridftp_16GiB", g_grid.sim_events, g_grid.wall_seconds,
           g_grid.transfer.goodput_gbps);

  // Fig. 10: the CPU breakdown of the same two runs.
  print_cpu_breakdown("RFTP source host", g_rftp.src_usage, g_rftp.window);
  print_cpu_breakdown("RFTP destination host", g_rftp.dst_usage,
                      g_rftp.window);
  print_cpu_breakdown("GridFTP source host", g_grid.src_usage,
                      g_grid.window);
  print_cpu_breakdown("GridFTP destination host", g_grid.dst_usage,
                      g_grid.window);

  const double grid_sys =
      g_grid.src_usage.percent(CpuCategory::kKernelProto, g_grid.window) +
      g_grid.src_usage.percent(CpuCategory::kCopy, g_grid.window);
  const double grid_user =
      g_grid.src_usage.percent(CpuCategory::kUserProto, g_grid.window);
  const double rftp_kernel =
      g_rftp.src_usage.percent(CpuCategory::kKernelProto, g_rftp.window);
  print_comparison(
      "Fig. 10 shapes",
      {
          {"GridFTP sys share of (sys+user)", 80.0,
           100.0 * grid_sys / (grid_sys + grid_user), "%"},
          {"RFTP kernel-protocol CPU", 0.0, rftp_kernel, "%"},
          {"GridFTP CPU per Gbps / RFTP CPU per Gbps", 3.0,
           (g_grid.src_usage.total_percent(g_grid.window) /
            g_grid.transfer.goodput_gbps) /
               (g_rftp.src_usage.total_percent(g_rftp.window) /
                g_rftp.transfer.goodput_gbps),
           "x"},
      });
  return 0;
}
