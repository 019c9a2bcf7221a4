// bench_fastforward — event-exact vs --fast-forward wall-clock comparison.
//
// Runs the same bulk transfer twice in-process (fresh engine each time):
// once event-exact, once with the steady-state detector enabled, timing
// exp::run_task() only (process startup and rig construction excluded —
// both modes pay them identically). Every paired row cross-checks the
// final metrics (bytes, blocks, elapsed, goodput, digest, counters) and
// refuses to report a speedup for a run that diverged.
//
// Rows:
//   quick_64gib         40G LAN steady-state bulk, bare event loop — the
//                       floor case: the exact run itself is near-free per
//                       block, so the ratio is the smallest of the bulk rows
//   quick_64gib_audit   the acceptance headline: same 64 GiB bulk with the
//                       cross-layer auditor enabled on both runs (the
//                       configuration the golden equivalence suite gates on)
//   quick_1tib          TB-scale LAN bulk (routine with fast-forward)
//   wan_64gib           95 ms ANI loop, minutes of simulated time
//   wan_1tib            multi-hour-class WAN bulk
//   wan_64gib_chaos     fault-heavy: scripted loss/flap/qpkill mid-run —
//                       honest row where the detector rarely engages
//
// Output: one JSON document on stdout (and to argv[1] when given) in the
// committed BENCH_fastforward.json shape.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "check/audit.hpp"
#include "exp/runner.hpp"
#include "exp/testbeds.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "model/host_profile.hpp"
#include "net/link.hpp"
#include "numa/numa.hpp"
#include "rdma/rdma.hpp"
#include "rftp/rftp.hpp"
#include "sim/sim.hpp"

namespace {

using namespace e2e;

struct RunOut {
  rftp::TransferResult r;
  std::uint64_t digest = 0;
  std::uint64_t control_msgs = 0;
  double wall_ms = 0.0;
};

/// One measured transfer on a fresh quick-style rig (two LAN hosts, one
/// 40G RoCE link) or the WAN loop testbed.
RunOut run_case(bool wan, std::uint64_t bytes, const std::string& plan_spec,
                bool fast_forward, bool audit) {
  std::unique_ptr<exp::WanTestbed> wtb;
  std::unique_ptr<sim::Engine> own_eng;
  std::unique_ptr<numa::Host> a, b;
  std::unique_ptr<rdma::Device> da, db;
  std::unique_ptr<net::Link> link;
  std::unique_ptr<numa::Process> pa, pb;
  sim::Engine* eng = nullptr;
  net::Link* wire = nullptr;
  rftp::EndpointConfig send{}, recv{};
  if (wan) {
    wtb = std::make_unique<exp::WanTestbed>();
    eng = &wtb->eng;
    wire = wtb->link.get();
    send = {wtb->a_proc.get(), {wtb->a_dev.get()}};
    recv = {wtb->b_proc.get(), {wtb->b_dev.get()}};
  } else {
    own_eng = std::make_unique<sim::Engine>();
    eng = own_eng.get();
    a = std::make_unique<numa::Host>(*eng, model::front_end_lan_host("a"));
    b = std::make_unique<numa::Host>(*eng, model::front_end_lan_host("b"));
    da = std::make_unique<rdma::Device>(*a, a->profile().nics[0]);
    db = std::make_unique<rdma::Device>(*b, b->profile().nics[0]);
    link = net::make_roce_lan(*eng, "wire");
    link->bind_endpoints(a.get(), b.get());
    pa = std::make_unique<numa::Process>(*a, "client",
                                         numa::NumaBinding::bound(da->node()));
    pb = std::make_unique<numa::Process>(*b, "server",
                                         numa::NumaBinding::bound(db->node()));
    wire = link.get();
    send = {pa.get(), {da.get()}};
    recv = {pb.get(), {db.get()}};
  }

  std::unique_ptr<check::Auditor> aud;
  if (audit) aud = std::make_unique<check::Auditor>(*eng);

  rftp::RftpConfig cfg;
  cfg.streams = wan ? 4 : 1;
  cfg.fast_forward = fast_forward;
  rftp::RftpSession sess(send, recv, {wire}, cfg);
  std::unique_ptr<fault::FaultInjector> inj;
  if (!plan_spec.empty()) {
    inj = std::make_unique<fault::FaultInjector>(
        *eng, fault::FaultPlan::parse(plan_spec));
    sess.attach(*inj);
    inj->arm();
  }
  rftp::MemorySource src(bytes, numa::Placement::on(0));
  rftp::MemorySink dst;

  RunOut out;
  const auto t0 = std::chrono::steady_clock::now();
  out.r = exp::run_task(*eng, sess.run(src, dst, bytes));
  const auto t1 = std::chrono::steady_clock::now();
  out.wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  out.digest = sess.sink_digest();
  out.control_msgs = sess.control_messages();
  if (aud) {
    aud->finalize();
    if (!aud->ok()) {
      std::fprintf(stderr, "FATAL: auditor violations (ff=%d)\n",
                   fast_forward);
      std::exit(1);
    }
  }
  return out;
}

bool same_finals(const RunOut& x, const RunOut& f) {
  return x.r.bytes == f.r.bytes && x.r.blocks == f.r.blocks &&
         x.r.elapsed_s == f.r.elapsed_s &&
         x.r.goodput_gbps == f.r.goodput_gbps &&
         x.r.complete == f.r.complete &&
         x.r.integrity_ok == f.r.integrity_ok &&
         x.r.crashes == f.r.crashes && x.r.resumes == f.r.resumes &&
         x.digest == f.digest && x.control_msgs == f.control_msgs;
}

/// Median-of-3 wall time: the simulation is deterministic, so all reps
/// must produce identical final metrics; only the wall clock varies (heap
/// state, CPU frequency). Returns the rep whose wall time is the median.
RunOut run_case_median(bool wan, std::uint64_t bytes,
                       const std::string& plan_spec, bool fast_forward,
                       bool audit) {
  RunOut reps[3];
  for (auto& rep : reps) {
    rep = run_case(wan, bytes, plan_spec, fast_forward, audit);
    if (!same_finals(reps[0], rep)) {
      std::fprintf(stderr, "FATAL: non-deterministic rep (ff=%d)\n",
                   fast_forward);
      std::exit(1);
    }
  }
  const double w0 = reps[0].wall_ms, w1 = reps[1].wall_ms,
               w2 = reps[2].wall_ms;
  if ((w0 <= w1 && w1 <= w2) || (w2 <= w1 && w1 <= w0)) return reps[1];
  if ((w1 <= w0 && w0 <= w2) || (w2 <= w0 && w0 <= w1)) return reps[0];
  return reps[2];
}

struct Row {
  std::string name;
  bool wan = false;
  std::uint64_t gib = 0;
  std::string plan;
  bool audit = false;
};

int run_all(const char* out_path) {
  const std::vector<Row> rows = {
      {"quick_64gib", false, 64, "", false},
      {"quick_64gib_audit", false, 64, "", true},
      {"quick_1tib", false, 1024, "", false},
      {"wan_64gib", true, 64, "", false},
      {"wan_1tib", true, 1024, "", false},
      // Fault-heavy row on the WAN rig (4 streams, so the qpkill fails
      // over instead of killing the transfer): scripted perturbations
      // spread across the run keep the detector event-exact until the
      // plan's quiet horizon.
      {"wan_64gib_chaos", true, 64,
       "loss@500ms:n=5;flap@2s:dur=20ms;qpkill@4s:qp=1;loss@8s:n=4;"
       "flap@11s:dur=10ms",
       false},
  };

  std::string json = "{\n  \"schema\": \"e2e-fastforward-perf/1\",\n";
  json +=
      "  \"description\": \"--fast-forward (steady-state analytic span "
      "collapse) vs event-exact execution of the same transfers. Both "
      "runs in one process, CMAKE_BUILD_TYPE=Release, exp::run_task wall "
      "time only, median of 3 repetitions per mode after an untimed "
      "warmup; every paired row's final metrics (bytes, blocks, "
      "elapsed, goodput, XOR digest, control messages, crash/resume "
      "counts) verified bit-identical before a speedup is reported. The "
      "chaos row is the honest fault-heavy case: scripted perturbations "
      "keep the detector disarmed for most of the run, so the speedup is "
      "modest by design.\",\n  \"rows\": [\n";

  // Untimed warmup: page in the binary, prime the allocator and branch
  // predictors so the first timed row is not systematically cold.
  std::fprintf(stderr, "warmup...\n");
  (void)run_case(false, 4ull << 30, "", false, false);
  (void)run_case(false, 4ull << 30, "", true, false);

  bool first = true;
  for (const Row& row : rows) {
    const std::uint64_t bytes = row.gib << 30;
    std::fprintf(stderr, "running %s exact...\n", row.name.c_str());
    const RunOut exact =
        run_case_median(row.wan, bytes, row.plan, false, row.audit);
    std::fprintf(stderr, "running %s fast-forward...\n", row.name.c_str());
    const RunOut ff =
        run_case_median(row.wan, bytes, row.plan, true, row.audit);
    if (!same_finals(exact, ff)) {
      std::fprintf(stderr, "FATAL: %s diverged between modes\n",
                   row.name.c_str());
      return 1;
    }
    char buf[640];
    std::snprintf(
        buf, sizeof buf,
        "    {\n"
        "      \"name\": \"%s\",\n"
        "      \"gib\": %llu,\n"
        "      \"audit\": %s,\n"
        "      \"faults\": %s,\n"
        "      \"sim_elapsed_s\": %.3f,\n"
        "      \"exact_wall_ms\": %.2f,\n"
        "      \"ff_wall_ms\": %.2f,\n"
        "      \"speedup\": %.1f,\n"
        "      \"ff_spans\": %llu,\n"
        "      \"ff_blocks_collapsed\": %llu,\n"
        "      \"blocks_total\": %llu,\n"
        "      \"finals_identical\": true\n"
        "    }",
        row.name.c_str(), static_cast<unsigned long long>(row.gib),
        row.audit ? "true" : "false", row.plan.empty() ? "false" : "true",
        exact.r.elapsed_s, exact.wall_ms, ff.wall_ms,
        exact.wall_ms / ff.wall_ms,
        static_cast<unsigned long long>(ff.r.ff_spans),
        static_cast<unsigned long long>(ff.r.ff_blocks),
        static_cast<unsigned long long>(ff.r.blocks));
    if (!first) json += ",\n";
    json += buf;
    first = false;
    std::fprintf(stderr, "%s: exact %.1f ms, ff %.1f ms (%.1fx), "
                 "%llu/%llu blocks collapsed\n",
                 row.name.c_str(), exact.wall_ms, ff.wall_ms,
                 exact.wall_ms / ff.wall_ms,
                 static_cast<unsigned long long>(ff.r.ff_blocks),
                 static_cast<unsigned long long>(ff.r.blocks));
  }
  json += "\n  ]\n}\n";
  std::fputs(json.c_str(), stdout);
  if (out_path != nullptr) {
    std::ofstream os(out_path);
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", out_path);
      return 1;
    }
    os << json;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return run_all(argc > 1 ? argv[1] : nullptr);
}
