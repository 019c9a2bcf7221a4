// Figs. 13 and 14: RFTP payload bandwidth (Fig. 13) and protocol CPU —
// (a) sender, (b) receiver — (Fig. 14) on the 40G, 95 ms ANI WAN loop as
// a function of block size and number of parallel streams. One sweep
// feeds both figures; Fig. 14 shows the 1/4/8-stream, 1-16 MiB corner.
//
// Paper shape: small blocks / few streams cannot cover the ~475 MB
// bandwidth-delay product and run window-limited; with enough outstanding
// data RFTP reaches ~97% of the raw link. Per-block protocol costs
// dominate CPU, so it falls as the block size grows and rises with stream
// count; both sides stay far below one core even at line rate.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <span>

#include "bench_util.hpp"
#include "exp/figures.hpp"
#include "metrics/table.hpp"

namespace e2e::bench {
namespace {

const std::uint64_t kBlocks[] = {1ull << 20, 4ull << 20, 16ull << 20,
                                 64ull << 20};
const int kStreams[] = {1, 2, 4, 8};
const std::uint64_t kFig14Blocks[] = {1ull << 20, 4ull << 20, 16ull << 20};
const int kFig14Streams[] = {1, 4, 8};

std::map<std::pair<int, std::uint64_t>, exp::WanPoint> g_points;

void BM_WanRftp(benchmark::State& state) {
  const int streams = kStreams[state.range(0)];
  const std::uint64_t block = kBlocks[state.range(1)];
  // Size the dataset so even window-limited points finish quickly.
  // Long enough that the window-fill ramp and drain tail are noise.
  const std::uint64_t dataset =
      std::max<std::uint64_t>(64ull * block * streams, 24ull << 30);
  exp::WanPoint p;
  for (auto _ : state) {
    p = exp::run_wan_point(streams, block, dataset);
    benchmark::DoNotOptimize(p.gbps);
  }
  g_points[{streams, block}] = p;
  state.counters["Gbps"] = p.gbps;
  state.counters["utilization"] = p.utilization;
  state.counters["sender_cpu_pct"] = p.sender_cpu_pct;
  state.counters["receiver_cpu_pct"] = p.receiver_cpu_pct;
  state.SetLabel(std::to_string(streams) + " streams/" +
                 std::to_string(block >> 20) + "MiB");
}
BENCHMARK(BM_WanRftp)
    ->ArgsProduct({{0, 1, 2, 3}, {0, 1, 2, 3}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

/// One row per block, one column per stream count, of `metric`.
void print_grid(const std::string& title,
                std::span<const std::uint64_t> blocks,
                std::span<const int> streams, double exp::WanPoint::*metric) {
  e2e::metrics::Table t(title);
  std::vector<std::string> header{"block"};
  for (const int s : streams)
    header.push_back(std::to_string(s) + (s == 1 ? " stream" : " streams"));
  t.header(header);
  for (const std::uint64_t block : blocks) {
    std::vector<std::string> row{std::to_string(block >> 20) + " MiB"};
    for (const int s : streams)
      row.push_back(e2e::metrics::Table::num(g_points[{s, block}].*metric));
    t.row(row);
  }
  std::fputs(t.to_string().c_str(), stdout);
  std::fputc('\n', stdout);
}

}  // namespace
}  // namespace e2e::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  using namespace e2e::bench;
  using e2e::exp::WanPoint;
  print_grid(
      "Fig. 13 WAN RFTP payload bandwidth (Gbps), RTT 95 ms, 16 credits",
      kBlocks, kStreams, &WanPoint::gbps);
  print_comparison(
      "Fig. 13 headline",
      {
          {"peak utilization of 40G link", 97.0,
           100.0 * g_points[{8, 16ull << 20}].utilization, "%"},
          {"window-limited point (1 stream, 1 MiB)", 1.4,
           g_points[{1, 1ull << 20}].gbps, "Gbps"},
      });

  print_grid("Fig. 14(a) sender protocol CPU (%)", kFig14Blocks,
             kFig14Streams, &WanPoint::sender_cpu_pct);
  print_grid("Fig. 14(b) receiver protocol CPU (%)", kFig14Blocks,
             kFig14Streams, &WanPoint::receiver_cpu_pct);
  print_comparison(
      "Fig. 14 shape: CPU per Gbps falls with block size (4 streams)",
      {
          {"sender CPU/Gbps at 1 MiB vs 16 MiB", 0.0,
           (g_points[{4, 1ull << 20}].sender_cpu_pct /
            g_points[{4, 1ull << 20}].gbps) /
               (g_points[{4, 16ull << 20}].sender_cpu_pct /
                g_points[{4, 16ull << 20}].gbps),
           "x"},
      });
  return 0;
}
