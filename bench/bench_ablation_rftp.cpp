// Ablations of RFTP's own design choices (DESIGN.md §4): credit depth vs
// the WAN bandwidth-delay product, NUMA-aware pinning on/off on the LAN
// end-to-end path, and block-size sensitivity.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>

#include "bench_util.hpp"
#include "exp/figures.hpp"
#include "metrics/table.hpp"

namespace e2e::bench {
namespace {

const int kCredits[] = {2, 4, 8, 16, 32};
std::map<int, exp::WanPoint> g_credits;

void BM_WanCreditDepth(benchmark::State& state) {
  const int credits = kCredits[state.range(0)];
  exp::WanPoint p;
  for (auto _ : state) {
    p = exp::run_wan_point(4, 4ull << 20, 8ull << 30, credits);
    benchmark::DoNotOptimize(p.gbps);
  }
  g_credits[credits] = p;
  state.counters["Gbps"] = p.gbps;
  state.SetLabel(std::to_string(credits) + " credits");
}
BENCHMARK(BM_WanCreditDepth)
    ->DenseRange(0, 4)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

exp::E2eResult g_tuned, g_untuned;

void BM_E2eNumaAware(benchmark::State& state) {
  const bool tuned = state.range(0) != 0;
  exp::E2eResult r;
  for (auto _ : state) {
    r = exp::run_e2e_rftp(24ull << 30, tuned);
    benchmark::DoNotOptimize(r.transfer.goodput_gbps);
  }
  (tuned ? g_tuned : g_untuned) = r;
  state.counters["Gbps"] = r.transfer.goodput_gbps;
  state.SetLabel(tuned ? "numa-aware" : "untuned");
}
BENCHMARK(BM_E2eNumaAware)
    ->Arg(0)
    ->Arg(1)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace e2e::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  using namespace e2e::bench;
  e2e::metrics::Table t(
      "Ablation: WAN credit depth (4 streams, 4 MiB blocks, BDP ~475 MB)");
  t.header({"credits/stream", "in-flight", "Gbps", "link util"});
  for (int c : kCredits) {
    const double mb = 4.0 * c * 4.0;
    t.row({std::to_string(c), e2e::metrics::Table::num(mb, 0) + " MiB",
           e2e::metrics::Table::num(g_credits[c].gbps),
           e2e::metrics::Table::num(100.0 * g_credits[c].utilization, 0) +
               "%"});
  }
  std::fputs(t.to_string().c_str(), stdout);

  print_comparison(
      "Ablation: RFTP NUMA awareness on the LAN end-to-end path",
      {
          {"numa-aware", 91.0, g_tuned.transfer.goodput_gbps, "Gbps"},
          {"untuned (stock scheduler + interleaved pools)", 0.0,
           g_untuned.transfer.goodput_gbps, "Gbps"},
          {"gain", 0.0,
           100.0 * (g_tuned.transfer.goodput_gbps /
                        g_untuned.transfer.goodput_gbps -
                    1.0),
           "%"},
      });
  return 0;
}
