// Fig. 4: CPU cost breakdown of a 39 Gbps /dev/zero -> /dev/null transfer
// over one 40G RoCE link, RDMA-based RFTP vs TCP-based iperf.
//
// Paper numbers (absolute CPU, both ends combined):
//   RFTP: 122% total — 56% user-space protocol, ~70% data load, 0% copy,
//         0% kernel protocol (offloaded).
//   TCP:  642% total — 311% kernel protocol, 213% copies, ~70% load.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "exp/figures.hpp"

namespace e2e::bench {
namespace {

exp::CostBreakdown g_rftp, g_tcp;

void BM_RftpZeroToNull(benchmark::State& state) {
  for (auto _ : state) {
    g_rftp = exp::run_fig4_rftp();
    benchmark::DoNotOptimize(g_rftp.gbps);
  }
  state.counters["Gbps"] = g_rftp.gbps;
  state.counters["cpu_total_pct"] = g_rftp.both_ends.total_percent(g_rftp.window);
}
BENCHMARK(BM_RftpZeroToNull)->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_TcpZeroToNull(benchmark::State& state) {
  for (auto _ : state) {
    g_tcp = exp::run_fig4_tcp();
    benchmark::DoNotOptimize(g_tcp.gbps);
  }
  state.counters["Gbps"] = g_tcp.gbps;
  state.counters["cpu_total_pct"] = g_tcp.both_ends.total_percent(g_tcp.window);
}
BENCHMARK(BM_TcpZeroToNull)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace e2e::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  using namespace e2e::bench;
  using e2e::metrics::CpuCategory;
  const auto& ru = g_rftp.both_ends;
  const auto& tu = g_tcp.both_ends;
  const auto rw = g_rftp.window;
  const auto tw = g_tcp.window;
  print_comparison(
      "Fig. 4 cost breakdown at ~39 Gbps (both ends combined)",
      {
          {"RFTP throughput", 39.0, g_rftp.gbps, "Gbps"},
          {"RFTP total CPU", 122.0, ru.total_percent(rw), "%"},
          {"RFTP user protocol", 56.0,
           ru.percent(CpuCategory::kUserProto, rw), "%"},
          {"RFTP copies", 0.0, ru.percent(CpuCategory::kCopy, rw), "%"},
          {"RFTP kernel protocol", 0.0,
           ru.percent(CpuCategory::kKernelProto, rw), "%"},
          {"RFTP data load (/dev/zero)", 70.0,
           ru.percent(CpuCategory::kLoad, rw), "%"},
          {"TCP throughput", 39.0, g_tcp.gbps, "Gbps"},
          {"TCP total CPU", 642.0, tu.total_percent(tw), "%"},
          {"TCP kernel protocol", 311.0,
           tu.percent(CpuCategory::kKernelProto, tw), "%"},
          {"TCP copies", 213.0, tu.percent(CpuCategory::kCopy, tw), "%"},
          {"TCP/RDMA total CPU ratio", 5.3,
           tu.total_percent(tw) / ru.total_percent(rw), "x"},
      });
  print_cpu_breakdown("RFTP (RDMA) breakdown", ru, rw);
  print_cpu_breakdown("iperf (TCP) breakdown", tu, tw);
  return 0;
}
