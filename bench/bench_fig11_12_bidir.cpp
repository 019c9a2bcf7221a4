// Figs. 11 and 12: bi-directional end-to-end throughput (Fig. 11) and the
// CPU breakdown of the same runs (Fig. 12).
//
// Paper numbers: RFTP improves 83% over its unidirectional rate (just shy
// of the ideal 2x due to back-end and memory contention); GridFTP gains
// only ~33% because it is already CPU-saturated. Fig. 12 shape: GridFTP's
// bidirectional CPU saturates (its scaling limit); RFTP's CPU roughly
// doubles but stays far below saturation.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "exp/figures.hpp"

namespace e2e::bench {
namespace {

exp::BidirResult g_rftp, g_grid;

void BM_BidirRftp(benchmark::State& state) {
  for (auto _ : state) {
    g_rftp = exp::run_e2e_rftp_bidir(24ull << 30);
    benchmark::DoNotOptimize(g_rftp.aggregate_gbps);
  }
  state.counters["aggregate_Gbps"] = g_rftp.aggregate_gbps;
  state.counters["improvement_pct"] = 100.0 * g_rftp.improvement;
  state.counters["src_cpu_pct"] =
      g_rftp.src_usage.total_percent(g_rftp.window);
}
BENCHMARK(BM_BidirRftp)->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_BidirGridFtp(benchmark::State& state) {
  for (auto _ : state) {
    g_grid = exp::run_e2e_gridftp_bidir(6ull << 30);
    benchmark::DoNotOptimize(g_grid.aggregate_gbps);
  }
  state.counters["aggregate_Gbps"] = g_grid.aggregate_gbps;
  state.counters["improvement_pct"] = 100.0 * g_grid.improvement;
  state.counters["src_cpu_pct"] =
      g_grid.src_usage.total_percent(g_grid.window);
}
BENCHMARK(BM_BidirGridFtp)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace e2e::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  using namespace e2e::bench;
  print_comparison(
      "Fig. 11 bi-directional end-to-end throughput",
      {
          {"RFTP unidirectional", 91.0, g_rftp.unidirectional_gbps, "Gbps"},
          {"RFTP bidirectional aggregate", 166.0, g_rftp.aggregate_gbps,
           "Gbps"},
          {"RFTP improvement", 83.0, 100.0 * g_rftp.improvement, "%"},
          {"GridFTP unidirectional", 29.0, g_grid.unidirectional_gbps,
           "Gbps"},
          {"GridFTP bidirectional aggregate", 38.6, g_grid.aggregate_gbps,
           "Gbps"},
          {"GridFTP improvement", 33.0, 100.0 * g_grid.improvement, "%"},
      });

  print_cpu_breakdown("RFTP host (bi-directional)", g_rftp.src_usage,
                      g_rftp.window);
  print_cpu_breakdown("GridFTP host (bi-directional)", g_grid.src_usage,
                      g_grid.window);
  print_comparison(
      "Fig. 12 shapes",
      {
          {"GridFTP CPU per aggregate Gbps", 0.0,
           g_grid.src_usage.total_percent(g_grid.window) /
               g_grid.aggregate_gbps,
           "%/Gbps"},
          {"RFTP CPU per aggregate Gbps", 0.0,
           g_rftp.src_usage.total_percent(g_rftp.window) /
               g_rftp.aggregate_gbps,
           "%/Gbps"},
      });
  return 0;
}
