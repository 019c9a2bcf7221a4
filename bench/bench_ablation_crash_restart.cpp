// Ablation: crash-stop fault domains on the RFTP WAN path (DESIGN.md §9).
//
// Two sweeps over the same 4 GiB transfer on the 95 ms ANI 40G loop:
//
//  * crash frequency — 0/1/2/4 scripted host crashes (50 ms downtime,
//    alternating sender/receiver). Measures goodput retained, MTTR
//    (crash to negotiated resume, RTT-dominated on the WAN) and
//    time-to-first-drain after each resume.
//  * checkpoint interval — one receiver crash mid-drain-burst with the
//    durable ledger checkpointing every 1/8/64 fresh drains, plus the
//    ledger disabled (restart from byte zero). Measures the rollback
//    the ledger buys back: blocks re-sent because their acks were
//    volatile when the receiver died.
//
// With E2E_BENCH_JSON set, per-case goodput + MTTR percentiles are
// written as a JSON artifact (CI uploads it per toolchain).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <string>

#include "bench_util.hpp"
#include "exp/runner.hpp"
#include "exp/testbeds.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "metrics/table.hpp"
#include "rftp/rftp.hpp"
#include "stats/stats.hpp"

namespace e2e::bench {
namespace {

constexpr std::uint64_t kDataset = 4ull << 30;

struct CrashPoint {
  double gbps = 0.0;
  std::uint64_t crashes = 0;
  std::uint64_t resumes = 0;
  std::uint64_t rolled_back = 0;
  std::uint64_t block_retx = 0;
  std::uint64_t grant_retx = 0;
  std::uint64_t checkpoints = 0;
  bool complete = false;
  bool integrity_ok = false;
  stats::Histogram mttr;       // crash -> resume negotiated (ns)
  stats::Histogram first_drain;  // resume -> first fresh drain (ns)
  std::uint64_t sim_events = 0;
  double wall_seconds = 0.0;
};

/// One transfer under `plan_str`, attached to the session.
CrashPoint run_crash_case(const std::string& plan_str, int checkpoint_blocks) {
  exp::WanTestbed tb;
  stats::Registry stats(tb.eng);  // the MTTR and first-drain histograms
  stats.install();

  rftp::RftpConfig cfg;
  cfg.streams = 4;
  cfg.block_bytes = 4ull << 20;
  cfg.credits_per_stream = 16;
  cfg.checkpoint_blocks = checkpoint_blocks;
  rftp::RftpSession sess({tb.a_proc.get(), {tb.a_dev.get()}},
                         {tb.b_proc.get(), {tb.b_dev.get()}},
                         {tb.link.get()}, cfg);

  fault::FaultInjector inj(tb.eng, fault::FaultPlan::parse(plan_str));
  sess.attach(inj);
  inj.arm();

  rftp::ZeroSource src(kDataset);
  rftp::NullSink dst;
  const auto w0 = std::chrono::steady_clock::now();
  const auto res = exp::run_task(tb.eng, sess.run(src, dst, kDataset));
  tb.eng.run();  // drain restart events scheduled past the transfer
  const auto w1 = std::chrono::steady_clock::now();

  CrashPoint p;
  p.gbps = res.goodput_gbps;
  p.crashes = res.crashes;
  p.resumes = res.resumes;
  p.rolled_back = sess.rolled_back_blocks;
  p.block_retx = sess.retransmissions;
  p.grant_retx = sess.grant_retransmissions;
  p.checkpoints = sess.checkpoints;
  p.complete = res.complete;
  p.integrity_ok = res.integrity_ok;
  p.mttr = stats.merged_histogram("mttr_ns");
  p.first_drain = stats.merged_histogram("resume_ns");
  p.sim_events = tb.eng.events_processed();
  p.wall_seconds = std::chrono::duration<double>(w1 - w0).count();
  return p;
}

struct FreqCase {
  const char* name = "";
  std::string plan;
};

/// 0..4 crashes across the ~1.4 s transfer, alternating hosts, 50 ms down.
std::vector<FreqCase> frequency_cases() {
  return {
      {"clean", ""},
      {"1 crash", "crash@600ms:host=1,down=50ms"},
      {"2 crashes",
       "crash@400ms:host=0,down=50ms; crash@800ms:host=1,down=50ms"},
      {"4 crashes",
       "crash@300ms:host=0,down=50ms; crash@600ms:host=1,down=50ms; "
       "crash@900ms:host=0,down=50ms; crash@1200ms:host=1,down=50ms"},
  };
}

const int kCkptBlocks[] = {1, 8, 64, 0};  // 0 = ledger disabled

std::map<int, CrashPoint> g_freq;
std::map<int, CrashPoint> g_ckpt;

void BM_CrashFrequency(benchmark::State& state) {
  const auto cases = frequency_cases();
  const auto idx = static_cast<std::size_t>(state.range(0));
  CrashPoint p;
  for (auto _ : state) {
    p = run_crash_case(cases[idx].plan, 8);
    benchmark::DoNotOptimize(p.gbps);
  }
  g_freq[static_cast<int>(idx)] = p;
  state.counters["Gbps"] = p.gbps;
  state.counters["resumes"] = static_cast<double>(p.resumes);
  state.SetLabel(cases[idx].name);
}
BENCHMARK(BM_CrashFrequency)
    ->DenseRange(0, 3)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_CheckpointInterval(benchmark::State& state) {
  const int ckpt = kCkptBlocks[state.range(0)];
  CrashPoint p;
  for (auto _ : state) {
    p = run_crash_case("crash@760ms:host=1,down=20ms", ckpt);
    benchmark::DoNotOptimize(p.gbps);
  }
  g_ckpt[ckpt] = p;
  state.counters["Gbps"] = p.gbps;
  state.counters["rolled_back"] = static_cast<double>(p.rolled_back);
  state.SetLabel(ckpt == 0 ? "ledger off"
                           : "ckpt every " + std::to_string(ckpt));
}
BENCHMARK(BM_CheckpointInterval)
    ->DenseRange(0, 3)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace e2e::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  using namespace e2e::bench;
  SimCostJson json;

  const auto cases = frequency_cases();
  e2e::metrics::Table t(
      "Ablation: crash frequency (4 GiB over the 95 ms WAN loop, 4 streams, "
      "50 ms downtime, ledger every 8 blocks)");
  t.header({"schedule", "Gbps", "resumes", "rolled back", "blk retx",
            "grant retx", "MTTR ms (mean)", "ok"});
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& p = g_freq[static_cast<int>(i)];
    t.row({cases[i].name, e2e::metrics::Table::num(p.gbps),
           std::to_string(p.resumes), std::to_string(p.rolled_back),
           std::to_string(p.block_retx), std::to_string(p.grant_retx),
           p.mttr.count() > 0
               ? e2e::metrics::Table::num(p.mttr.mean() * 1e-6, 1)
               : std::string("-"),
           p.complete && p.integrity_ok ? "yes" : "NO"});
    json.add("crash_restart/" + std::string(cases[i].name), p.sim_events,
             p.wall_seconds, p.gbps, &p.mttr);
  }
  std::fputs(t.to_string().c_str(), stdout);

  e2e::metrics::Table c(
      "Ablation: ledger checkpoint interval (one receiver crash at 760 ms, "
      "20 ms downtime)");
  c.header({"interval", "Gbps", "checkpoints", "rolled back", "re-sent MiB",
            "ok"});
  for (const int ckpt : kCkptBlocks) {
    const auto& p = g_ckpt[ckpt];
    c.row({ckpt == 0 ? "ledger off" : "every " + std::to_string(ckpt),
           e2e::metrics::Table::num(p.gbps), std::to_string(p.checkpoints),
           std::to_string(p.rolled_back),
           std::to_string(p.rolled_back * 4),  // 4 MiB blocks
           p.complete && p.integrity_ok ? "yes" : "NO"});
    json.add("crash_restart/ckpt_" +
                 (ckpt == 0 ? std::string("off") : std::to_string(ckpt)),
             p.sim_events, p.wall_seconds, p.gbps, &p.mttr);
  }
  std::fputs(c.to_string().c_str(), stdout);

  // MTTR decomposition: re-establish + MR re-pin + resume negotiation is
  // RTT-dominated on the WAN; time-to-first-drain adds the refill of the
  // credit pipeline.
  std::vector<std::pair<std::string, const e2e::stats::Histogram*>> hists;
  for (std::size_t i = 1; i < cases.size(); ++i) {
    hists.push_back({std::string(cases[i].name) + " MTTR",
                     &g_freq[static_cast<int>(i)].mttr});
    hists.push_back({std::string(cases[i].name) + " first-drain",
                     &g_freq[static_cast<int>(i)].first_drain});
  }
  print_hist_percentiles("Crash recovery latency (ms)", hists, 1e-6, 1);
  std::printf(
      "\nThe ledger turns a receiver crash from a full restart into a\n"
      "bounded rollback (at most interval-1 blocks per stream re-sent);\n"
      "MTTR itself is wire-bound -- re-login, MR re-pin and the resume\n"
      "handshake all ride the 95 ms RTT, not the checkpoint cadence.\n");
  return 0;
}
