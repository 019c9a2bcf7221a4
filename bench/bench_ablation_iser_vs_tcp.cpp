// Ablation: iSER vs traditional iSCSI-over-TCP on the back-end SAN.
//
// The paper adopts iSER for its storage network (§2.2, §3.1) on the
// grounds that TCP's copies and kernel processing would consume the hosts
// long before the wire saturates. This bench runs the same SCSI workload
// over both datamovers on one 56G IB link and reports bandwidth and CPU
// on both hosts.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>

#include "metrics/table.hpp"
#include "san_link_bench.hpp"

namespace e2e::bench {
namespace {

struct Result {
  double gbps = 0.0;
  double initiator_cpu = 0.0;
  double target_cpu = 0.0;
  double copy_cpu = 0.0;  // both hosts
};

Result run_transport(bool use_tcp, bool write) {
  sim::Engine eng;
  exp::IscsiRigConfig cfg;
  cfg.transport = use_tcp ? exp::Transport::kTcp : exp::Transport::kIser;
  SanLinkBench b(eng, cfg);

  const sim::SimDuration window = 2 * sim::kSecond;
  const sim::SimTime deadline = eng.now() + window;
  const sim::SimTime t0 = eng.now();
  b.start_jobs(write, deadline);
  eng.run_until(deadline);
  const sim::SimDuration w = eng.now() - t0;

  Result r;
  r.gbps = static_cast<double>(b.bytes) * 8.0 / static_cast<double>(w);
  r.initiator_cpu = b.fe.total_usage().total_percent(w);
  r.target_cpu = b.be.total_usage().total_percent(w);
  r.copy_cpu = b.fe.total_usage().percent(metrics::CpuCategory::kCopy, w) +
               b.be.total_usage().percent(metrics::CpuCategory::kCopy, w);
  eng.run();
  return r;
}

std::map<std::pair<bool, bool>, Result> g_results;

void BM_SanTransport(benchmark::State& state) {
  const bool tcp = state.range(0) != 0;
  const bool write = state.range(1) != 0;
  Result r;
  for (auto _ : state) {
    r = run_transport(tcp, write);
    benchmark::DoNotOptimize(r.gbps);
  }
  g_results[{tcp, write}] = r;
  state.counters["Gbps"] = r.gbps;
  state.counters["copy_cpu_pct"] = r.copy_cpu;
  state.SetLabel(std::string(tcp ? "iscsi-tcp" : "iser") +
                 (write ? "/write" : "/read"));
}
BENCHMARK(BM_SanTransport)
    ->ArgsProduct({{0, 1}, {0, 1}})
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
      "Ablation: SAN transport, one 56G IB link, 8 jobs x 4 MiB");
  t.header({"transport", "op", "Gbps", "initiator CPU", "target CPU",
            "copy CPU (both)"});
  for (const bool tcp : {false, true})
    for (const bool write : {false, true}) {
      const auto& r = g_results[{tcp, write}];
      t.row({tcp ? "iSCSI/TCP" : "iSER (RDMA)", write ? "write" : "read",
             e2e::metrics::Table::num(r.gbps),
             e2e::metrics::Table::num(r.initiator_cpu, 0) + "%",
             e2e::metrics::Table::num(r.target_cpu, 0) + "%",
             e2e::metrics::Table::num(r.copy_cpu, 0) + "%"});
    }
  std::fputs(t.to_string().c_str(), stdout);
  std::printf(
      "\nwhy the paper picked iSER: TCP pays payload copies + per-packet\n"
      "kernel work on both hosts; RDMA offloads both to the adapters.\n");
  return 0;
}
