// Ablation (§4.2): fio threads per LUN.
//
// The paper reports throughput levels off at 4 threads/LUN and degrades
// beyond that from contention; this sweep regenerates that knee.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>

#include "bench_util.hpp"
#include "exp/figures.hpp"
#include "metrics/table.hpp"

namespace e2e::bench {
namespace {

const int kThreads[] = {1, 2, 4, 8, 16};
std::map<int, exp::IserPoint> g_read, g_write;

void BM_ThreadsPerLun(benchmark::State& state) {
  const int threads = kThreads[state.range(0)];
  const bool write = state.range(1) != 0;
  exp::IserPoint p;
  for (auto _ : state) {
    p = exp::run_iser_point(true, write, 4ull << 20, threads);
    benchmark::DoNotOptimize(p.gbps);
  }
  (write ? g_write : g_read)[threads] = p;
  state.counters["Gbps"] = p.gbps;
  state.SetLabel(std::to_string(threads) + (write ? " thr/write" : " thr/read"));
}
BENCHMARK(BM_ThreadsPerLun)
    ->ArgsProduct({{0, 1, 2, 3, 4}, {0, 1}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace e2e::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  using namespace e2e::bench;
  e2e::metrics::Table t("Ablation: fio threads per LUN (tuned, 4 MiB)");
  t.header({"threads/LUN", "read Gbps", "write Gbps", "target CPU% (write)"});
  for (int thr : kThreads)
    t.row({std::to_string(thr), e2e::metrics::Table::num(g_read[thr].gbps),
           e2e::metrics::Table::num(g_write[thr].gbps),
           e2e::metrics::Table::num(g_write[thr].target_cpu_pct, 0)});
  std::fputs(t.to_string().c_str(), stdout);
  std::printf(
      "\npaper: gains level off at 4 threads/LUN; more adds contention\n");
  return 0;
}
