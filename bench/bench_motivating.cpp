// §2.3 motivating experiment: STREAM triad peak and bi-directional iperf
// over three 40G RoCE links, stock scheduler vs NUMA tuning.
//
// Paper numbers: Triad 50 GB/s; iperf 83.5 Gbps (default) -> 91.8 Gbps
// (tuned), with the kernel copy routine at ~35% of overall CPU.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "exp/figures.hpp"

namespace e2e::bench {
namespace {

exp::MotivatingResult g_default, g_tuned;

void BM_IperfDefaultScheduler(benchmark::State& state) {
  for (auto _ : state) {
    g_default = exp::run_motivating(false);
    benchmark::DoNotOptimize(g_default.iperf_gbps);
  }
  state.counters["Gbps"] = g_default.iperf_gbps;
  state.counters["copy_share"] = g_default.copy_share;
}
BENCHMARK(BM_IperfDefaultScheduler)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_IperfNumaTuned(benchmark::State& state) {
  for (auto _ : state) {
    g_tuned = exp::run_motivating(true);
    benchmark::DoNotOptimize(g_tuned.iperf_gbps);
  }
  state.counters["Gbps"] = g_tuned.iperf_gbps;
}
BENCHMARK(BM_IperfNumaTuned)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace e2e::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  using namespace e2e::bench;
  print_comparison(
      "Sec 2.3 motivating experiment",
      {
          {"STREAM triad (local)", 50.0, g_tuned.stream_local_gBps, "GB/s"},
          {"STREAM triad (interleaved)", 0.0,
           g_tuned.stream_interleaved_gBps, "GB/s"},
          {"iperf bidir, default sched", 83.5, g_default.iperf_gbps, "Gbps"},
          {"iperf bidir, NUMA tuned", 91.8, g_tuned.iperf_gbps, "Gbps"},
          {"NUMA tuning gain", 9.9,
           100.0 * (g_tuned.iperf_gbps / g_default.iperf_gbps - 1.0), "%"},
          {"copy routines' CPU share", 35.0, 100.0 * g_default.copy_share,
           "%"},
      });
  print_cpu_breakdown("host CPU, default scheduler", g_default.host_usage,
                      g_default.window);
  return 0;
}
