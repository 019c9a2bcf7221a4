// Figs. 7 and 8: iSER bandwidth (Fig. 7) and target CPU utilization
// (Fig. 8), default Linux scheduling vs NUMA tuning, for read and write
// fio workloads across block sizes (6 LUNs x 4 threads, two IB FDR links,
// tmpfs-backed target). One sweep feeds both figures; Fig. 8 shows the
// 1 MiB and larger blocks.
//
// Paper shape: reads gain ~7.6% from tuning; writes gain up to ~19% for
// blocks > 4 MB; tuned reads run ~7.5% above tuned writes (RDMA Write vs
// RDMA Read); tuned write lands at ~94.8 Gbps (the Fig. 9 path limit).
// The un-tuned write path costs ~3x the CPU of the tuned one
// (write-invalidate coherence storms); reads see only a modest penalty.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <span>

#include "bench_util.hpp"
#include "exp/figures.hpp"
#include "metrics/table.hpp"

namespace e2e::bench {
namespace {

const std::uint64_t kBlocks[] = {256ull << 10, 1ull << 20, 4ull << 20,
                                 8ull << 20};
const std::uint64_t kFig8Blocks[] = {1ull << 20, 4ull << 20, 8ull << 20};

std::map<std::tuple<bool, bool, std::uint64_t>, exp::IserPoint> g_points;

void BM_IserFio(benchmark::State& state) {
  const bool tuned = state.range(0) != 0;
  const bool write = state.range(1) != 0;
  const std::uint64_t block = kBlocks[state.range(2)];
  exp::IserPoint p;
  for (auto _ : state) {
    p = exp::run_iser_point(tuned, write, block);
    benchmark::DoNotOptimize(p.gbps);
  }
  g_points[{tuned, write, block}] = p;
  state.counters["Gbps"] = p.gbps;
  state.counters["target_cpu_pct"] = p.target_cpu_pct;
  state.SetLabel(std::string(tuned ? "tuned" : "default") +
                 (write ? "/write" : "/read") + "/" +
                 std::to_string(block >> 20) + "MiB");
}
BENCHMARK(BM_IserFio)
    ->ArgsProduct({{0, 1}, {0, 1}, {0, 1, 2, 3}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

/// One row per block of `metric`: read/default, read/tuned, write/default,
/// write/tuned.
void print_sweep(const std::string& title,
                 std::span<const std::uint64_t> blocks, bool kib,
                 double exp::IserPoint::*metric, int digits) {
  e2e::metrics::Table t(title);
  t.header({"block", "read/default", "read/tuned", "write/default",
            "write/tuned"});
  for (const std::uint64_t b : blocks) {
    std::vector<std::string> row{kib ? std::to_string(b >> 10) + " KiB"
                                     : std::to_string(b >> 20) + " MiB"};
    for (const bool write : {false, true})
      for (const bool tuned : {false, true})
        row.push_back(e2e::metrics::Table::num(
            g_points[{tuned, write, b}].*metric, digits));
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
  using e2e::exp::IserPoint;
  print_sweep("Fig. 7 iSER bandwidth (Gbps) vs block size", kBlocks, true,
              &IserPoint::gbps, 1);
  const auto& tr = g_points[{true, false, 4ull << 20}];
  const auto& tw = g_points[{true, true, 4ull << 20}];
  const auto& dr = g_points[{false, false, 4ull << 20}];
  const auto& dw = g_points[{false, true, 4ull << 20}];
  print_comparison(
      "Fig. 7 headline shapes (4 MiB blocks)",
      {
          {"tuned write (path limit)", 94.8, tw.gbps, "Gbps"},
          {"read advantage over write (tuned)", 7.5,
           100.0 * (tr.gbps / tw.gbps - 1.0), "%"},
          {"write loss without tuning", -19.0,
           100.0 * (dw.gbps / tw.gbps - 1.0), "%"},
          {"read loss without tuning", -7.1,
           100.0 * (dr.gbps / tr.gbps - 1.0), "%"},
      });

  print_sweep("Fig. 8 iSER target CPU (%, 100 == one core)", kFig8Blocks,
              false, &IserPoint::target_cpu_pct, 0);
  print_comparison(
      "Fig. 8 headline shapes (4 MiB blocks)",
      {
          {"write CPU ratio default/tuned", 3.0,
           dw.target_cpu_pct / tw.target_cpu_pct, "x"},
          {"read CPU ratio default/tuned", 1.2,
           dr.target_cpu_pct / tr.target_cpu_pct, "x"},
      });
  return 0;
}
