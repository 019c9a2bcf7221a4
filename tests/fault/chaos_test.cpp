// Chaos suite: every transfer mode (rftp, iSER, TCP/iSCSI) completes a
// multi-GB simulated transfer under a seeded random FaultPlan — loss
// bursts, a link flap, a latency spike, a blackhole and a QP kill — with
// end-to-end integrity verified at the sink and no hang. The seed comes
// from E2E_CHAOS_SEED (CI sweeps a matrix of seeds); the same seed must
// reproduce byte-identical traces. ObserverPin holds fixed-seed runs of
// every mode to golden hashes of their trace, stats and flight output.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "check/audit.hpp"
#include "exp/runner.hpp"
#include "fault/injector.hpp"
#include "fault/integrity.hpp"
#include "fault/plan.hpp"
#include "iscsi/initiator.hpp"
#include "iscsi/target.hpp"
#include "iscsi/tcp_datamover.hpp"
#include "iser/session.hpp"
#include "rftp/rftp.hpp"
#include "stats/registry.hpp"
#include "tcp/connection.hpp"
#include "testutil.hpp"
#include "trace/tracer.hpp"

namespace e2e::fault {
namespace {

using e2e::test::TinyRig;
using e2e::test::make_buffer;

std::string audit_report(const check::Auditor& au) {
  std::ostringstream os;
  au.report(os);
  return os.str();
}

std::uint64_t chaos_seed() {
  const char* s = std::getenv("E2E_CHAOS_SEED");
  if (s == nullptr || *s == '\0') return 1;
  return std::strtoull(s, nullptr, 10);
}

/// A plan with the acceptance mix — loss bursts, one flap, one spike, one
/// blackhole, one QP kill — spread over the first `horizon` of the run.
FaultPlan chaos_plan(std::uint64_t seed, sim::SimDuration horizon, int qps) {
  FaultPlan::RandomParams p;
  p.horizon = horizon;
  p.links = 1;
  p.qps = qps;
  p.loss_bursts = 4;
  p.max_burst = 6;
  p.flaps = 1;
  p.max_flap = 10 * sim::kMillisecond;
  p.spikes = 1;
  p.max_spike = 20 * sim::kMillisecond;
  p.max_extra_latency = sim::kMillisecond;
  p.holes = 1;
  p.max_hole = 5 * sim::kMillisecond;
  p.qp_kills = 1;
  return FaultPlan::random(seed, p);
}

// ---------------------------------------------------------------------------
// rftp

/// Tracer plus stats registry installed on one engine, with a flight ring
/// large enough that a pinned run never overwrites a record. capture()
/// renders everything they recorded.
struct Observers {
  trace::Tracer tracer;
  stats::Registry stats;

  explicit Observers(sim::Engine& eng)
      : tracer(eng), stats(eng, stats::Config{4096, std::size_t{1} << 16}) {
    tracer.install();
    stats.install();
  }

  struct Captured {
    std::string chrome_trace;
    std::string stats_json;
    std::string flight;
  };
  [[nodiscard]] Captured capture() const {
    EXPECT_LE(stats.flight_written(), stats.flight_capacity());
    std::ostringstream ts, ss, fs;
    tracer.write_chrome_trace(ts);
    stats.write_json(ss);
    stats.dump_flight(fs);
    return {ts.str(), ss.str(), fs.str()};
  }
};

// ---------------------------------------------------------------------------
// rftp

struct RftpChaosOutcome {
  rftp::TransferResult result;
  std::uint64_t failovers = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t faults_injected = 0;
  Observers::Captured observed;
};

constexpr int kRftpStreams = 3;

/// The seeded chaos mix over ~80% of the transfer's expected duration at
/// line rate, so every event lands while data is still moving.
FaultPlan rftp_chaos_plan(std::uint64_t seed, std::uint64_t total) {
  return chaos_plan(seed, static_cast<sim::SimDuration>(total / 6),
                    kRftpStreams);
}

RftpChaosOutcome run_rftp_chaos(const FaultPlan& plan, std::uint64_t total,
                                bool observe) {
  TinyRig rig;
  // Full invariant audit rides along on every chaos run: faulted paths are
  // exactly where conservation bugs hide.
  check::Auditor audit(rig.eng);
  std::optional<Observers> obs;
  if (observe) obs.emplace(rig.eng);

  rftp::RftpConfig cfg;
  cfg.streams = kRftpStreams;
  cfg.block_bytes = 4 << 20;
  rftp::EndpointConfig snd{rig.proc_a.get(), {rig.dev_a.get()}};
  rftp::EndpointConfig rcv{rig.proc_b.get(), {rig.dev_b.get()}};
  rftp::RftpSession sess(snd, rcv, {rig.link.get()}, cfg);

  FaultInjector inj(rig.eng, plan);
  inj.attach(*rig.link);
  const int streams = cfg.streams;
  inj.set_qp_kill_handler(
      [&sess, streams](int qp) { sess.kill_stream(qp % streams); });
  inj.set_crash_handler([&sess](int host, sim::SimDuration down) {
    sess.crash_host(host, down);
  });
  inj.arm();

  rftp::ZeroSource src(total);
  rftp::NullSink dst;
  RftpChaosOutcome out;
  out.result = exp::run_task(rig.eng, sess.run(src, dst, total));
  rig.eng.run();  // drain any fault events scheduled past the transfer
  out.failovers = sess.failovers;
  out.retransmissions = sess.retransmissions;
  out.faults_injected = inj.faults_injected();
  audit.finalize();
  EXPECT_TRUE(audit.ok()) << audit_report(audit);
  if (obs) out.observed = obs->capture();
  return out;
}

TEST(ChaosRftp, MultiGbTransferSurvivesSeededPlan) {
  const std::uint64_t total = 2ull << 30;  // 2 GiB
  const auto out =
      run_rftp_chaos(rftp_chaos_plan(chaos_seed(), total), total, false);
  EXPECT_TRUE(out.result.complete);
  EXPECT_TRUE(out.result.integrity_ok);
  EXPECT_EQ(out.result.bytes, total);
  EXPECT_EQ(out.result.blocks, total / (4u << 20));
  // The plan's QP kill fired and was survived by failover.
  EXPECT_GE(out.failovers, 1u);
  EXPECT_GE(out.faults_injected, 5u);  // 4 loss + flap + spike + hole + kill
}

TEST(ChaosRftp, SameSeedReproducesByteIdenticalTrace) {
  const std::uint64_t total = 256ull << 20;
  const auto plan = rftp_chaos_plan(chaos_seed(), total);
  const auto a = run_rftp_chaos(plan, total, true);
  const auto b = run_rftp_chaos(plan, total, true);
  ASSERT_FALSE(a.observed.chrome_trace.empty());
  EXPECT_EQ(a.observed.chrome_trace, b.observed.chrome_trace);
  EXPECT_EQ(a.failovers, b.failovers);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  // And the trace records the injected faults on the fault layer.
  EXPECT_NE(a.observed.chrome_trace.find("\"fault\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// iSCSI write workload shared by the iSER and TCP modes: n_cmds sequential
// WRITEs at distinct LBAs. Returns the count of non-GOOD statuses and
// accumulates the analytically expected integrity digest.

sim::Task<int> drive_writes(iscsi::Initiator& init, numa::Thread& th,
                            int n_cmds, std::uint32_t blocks_per_cmd,
                            mem::Buffer& buf, std::uint64_t& expected) {
  int bad = 0;
  for (int i = 0; i < n_cmds; ++i) {
    const std::uint64_t lba = std::uint64_t{static_cast<unsigned>(i)} *
                              blocks_per_cmd;
    const auto st = co_await init.submit_write(th, 0, lba, blocks_per_cmd,
                                               buf);
    if (st != scsi::Status::kGood) ++bad;
    else expected ^= block_range_tag(lba, blocks_per_cmd);
  }
  co_return bad;
}

struct IscsiChaosOutcome {
  int bad = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t skipped_events = 0;
  std::uint64_t recoveries = 0;
  bool abandoned = false;
  std::uint64_t writes_executed = 0;
  std::uint64_t written_digest = 0;
  std::uint64_t expected_digest = 0;
  Observers::Captured observed;
};

constexpr int kChaosWrites = 512;  // 2 GiB: 512 x 4 MiB WRITEs

/// The iSCSI write workload over iSER under the seeded plan, with the
/// plan's QP kill walked back by the session's recovery supervisor.
IscsiChaosOutcome run_iser_chaos(std::uint64_t seed, bool observe) {
  TinyRig rig;
  check::Auditor audit(rig.eng);
  std::optional<Observers> obs;
  if (observe) obs.emplace(rig.eng);
  auto tgt_fs = std::make_unique<mem::Tmpfs>(*rig.b);
  auto& f = tgt_fs->create("lun0", 2ull << 30, numa::MemPolicy::kBind, 0);
  scsi::Lun lun(0, *tgt_fs, f);
  iser::IserSession session(*rig.dev_a, *rig.dev_b, *rig.link, *rig.proc_a,
                            *rig.proc_b);
  mem::BufferPool staging(*rig.b, "staging", 4, 1 << 20,
                          numa::MemPolicy::kBind, 0);
  staging.mark_registered();
  iscsi::Target target(*rig.proc_b, session.target_ep(),
                       std::vector<scsi::Lun*>{&lun}, staging);
  iscsi::RetryPolicy policy;  // capped retries absorb the loss bursts
  iscsi::Initiator initiator(*rig.proc_a, session.initiator_ep(),
                             2 * sim::kMillisecond, policy);
  numa::Thread& ith = rig.proc_a->spawn_thread();
  numa::Thread& tth = rig.proc_b->spawn_thread();
  exp::run_task(rig.eng, session.start(ith, tth));
  target.start(2);
  iscsi::LoginParams params;
  IscsiChaosOutcome out;
  EXPECT_TRUE(exp::run_task(rig.eng, initiator.login(ith, params)));
  initiator.start_dispatcher(ith);
  iser::SessionRecoveryPolicy rp;
  rp.mr_bytes_initiator = 4 << 20;
  rp.mr_bytes_target = 4 << 20;
  session.enable_recovery(ith, tth, rp);

  FaultInjector inj(rig.eng, chaos_plan(seed, 400 * sim::kMillisecond, 1));
  inj.attach(*rig.link);
  inj.set_qp_kill_handler([&session](int) { session.kill(); });
  inj.arm();

  const std::uint32_t blocks_per_cmd = (4u << 20) / 512;
  auto buf = make_buffer(*rig.a, 4 << 20, 0);
  out.bad = exp::run_task(rig.eng,
                          drive_writes(initiator, ith, kChaosWrites,
                                       blocks_per_cmd, buf,
                                       out.expected_digest));
  rig.eng.run();

  out.faults_injected = inj.faults_injected();
  out.skipped_events = inj.skipped_events();
  out.recoveries = session.recoveries();
  out.abandoned = session.abandoned();
  out.writes_executed = lun.writes_executed();
  out.written_digest = lun.written_digest();
  audit.finalize();
  EXPECT_TRUE(audit.ok()) << audit_report(audit);
  if (obs) out.observed = obs->capture();
  return out;
}

/// The same workload over iSCSI/TCP. The plan's qpkill event has no QP to
/// hit on this path and is counted as skipped — the wire faults are all
/// absorbed inside TCP.
IscsiChaosOutcome run_tcp_chaos(std::uint64_t seed, bool observe) {
  TinyRig rig;
  check::Auditor audit(rig.eng);
  std::optional<Observers> obs;
  if (observe) obs.emplace(rig.eng);
  auto tgt_fs = std::make_unique<mem::Tmpfs>(*rig.b);
  auto& f = tgt_fs->create("lun0", 2ull << 30, numa::MemPolicy::kBind, 0);
  scsi::Lun lun(0, *tgt_fs, f);
  iscsi::TcpSession session(*rig.a, 0, *rig.b, 0, *rig.link, *rig.proc_a,
                            *rig.proc_b);
  mem::BufferPool staging(*rig.b, "staging", 4, 1 << 20,
                          numa::MemPolicy::kBind, 0);
  iscsi::Target target(*rig.proc_b, session.target_ep(),
                       std::vector<scsi::Lun*>{&lun}, staging);
  iscsi::RetryPolicy policy;
  iscsi::Initiator initiator(*rig.proc_a, session.initiator_ep(),
                             5 * sim::kMillisecond, policy);
  numa::Thread& ith = rig.proc_a->spawn_thread();
  numa::Thread& tth = rig.proc_b->spawn_thread();
  numa::Thread& itx = rig.proc_a->spawn_thread();
  numa::Thread& ttx = rig.proc_b->spawn_thread();
  exp::run_task(rig.eng, session.start(ith, itx, tth, ttx));
  target.start(2);
  iscsi::LoginParams params;
  IscsiChaosOutcome out;
  EXPECT_TRUE(exp::run_task(rig.eng, initiator.login(ith, params)));
  initiator.start_dispatcher(ith);

  FaultInjector inj(rig.eng, chaos_plan(seed, 400 * sim::kMillisecond, 1));
  inj.attach(*rig.link);
  inj.arm();

  const std::uint32_t blocks_per_cmd = (4u << 20) / 512;
  auto buf = make_buffer(*rig.a, 4 << 20, 0);
  out.bad = exp::run_task(rig.eng,
                          drive_writes(initiator, ith, kChaosWrites,
                                       blocks_per_cmd, buf,
                                       out.expected_digest));
  rig.eng.run();

  out.faults_injected = inj.faults_injected();
  out.skipped_events = inj.skipped_events();
  out.writes_executed = lun.writes_executed();
  out.written_digest = lun.written_digest();
  audit.finalize();
  EXPECT_TRUE(audit.ok()) << audit_report(audit);
  if (obs) out.observed = obs->capture();
  return out;
}

TEST(ChaosIser, MultiGbWriteWorkloadSurvivesSeededPlan) {
  const auto out = run_iser_chaos(chaos_seed(), false);
  EXPECT_EQ(out.bad, 0);
  EXPECT_GE(out.faults_injected, 5u);
  EXPECT_GE(out.recoveries, 1u);  // the QP kill was recovered
  EXPECT_FALSE(out.abandoned);
  // Every logical block executed exactly once despite retransmissions:
  // each 4 MiB command lands as four 1 MiB staging segments, and the
  // XOR ledger composes segment tags back to the per-command range tag.
  EXPECT_EQ(out.writes_executed,
            4u * static_cast<std::uint64_t>(kChaosWrites));
  EXPECT_EQ(out.written_digest, out.expected_digest);
}

TEST(ChaosTcp, MultiGbWriteWorkloadSurvivesSeededPlan) {
  const auto out = run_tcp_chaos(chaos_seed(), false);
  EXPECT_EQ(out.bad, 0);
  EXPECT_GE(out.faults_injected, 4u);
  EXPECT_EQ(out.skipped_events, 1u);  // the qpkill, by design
  EXPECT_EQ(out.writes_executed,
            4u * static_cast<std::uint64_t>(kChaosWrites));
  EXPECT_EQ(out.written_digest, out.expected_digest);
}

// ---------------------------------------------------------------------------
// Observer pin: fixed-seed runs of every mode, plus one crash plan, a lossy
// TCP connection and an RNR stall, with the tracer and the stats registry
// installed. The Chrome trace, the stats JSON
// and the full flight stream are hashed whole, so any change to how the
// layers instrument themselves must reproduce every byte. The seeds are
// fixed (not E2E_CHAOS_SEED): these are goldens, not a sweep.

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Distinct flight codes in a dump_flight() stream: each record line ends
/// "<entity> <code> arg=<n>".
std::set<std::string> flight_codes(const std::string& flight) {
  std::set<std::string> codes;
  std::istringstream in(flight);
  std::string line;
  while (std::getline(in, line)) {
    const auto arg = line.rfind(" arg=");
    if (arg == std::string::npos) continue;
    const auto sp = line.rfind(' ', arg - 1);
    codes.insert(line.substr(sp + 1, arg - sp - 1));
  }
  return codes;
}

struct Pinned {
  std::uint64_t chrome_trace;
  std::uint64_t stats_json;
  std::uint64_t flight;
};

void expect_pinned(const char* run, const Observers::Captured& got,
                   const Pinned& want) {
  SCOPED_TRACE(run);
  EXPECT_FALSE(got.flight.empty());
  EXPECT_EQ(fnv1a(got.chrome_trace), want.chrome_trace);
  EXPECT_EQ(fnv1a(got.stats_json), want.stats_json);
  EXPECT_EQ(fnv1a(got.flight), want.flight);
}

/// A flow-controlled TCP transfer over a lossy connection (loss_rate, no
/// fault plan): reaches the `loss` probe.
Observers::Captured run_lossy_tcp() {
  TinyRig rig;
  Observers obs(rig.eng);
  tcp::ConnectionOptions opts;
  opts.flow_controlled = true;
  opts.max_window_bytes = 1 << 20;
  opts.loss_rate = 1e-6;
  tcp::Connection conn(*rig.a, 0, *rig.b, 0, *rig.link, opts);
  numa::Thread& tx = rig.proc_a->spawn_thread();
  numa::Thread& rx = rig.proc_b->spawn_thread();
  auto sender = [](tcp::Connection& c, numa::Thread& th) -> sim::Task<> {
    for (int i = 0; i < 32; ++i)
      co_await c.send(th, numa::Placement::on(0), 256 * 1024);
    c.shutdown(th);
  };
  auto receiver = [](tcp::Connection& c,
                     numa::Thread& th) -> sim::Task<std::uint64_t> {
    std::uint64_t total = 0;
    while (const std::uint64_t n = co_await c.recv(th, numa::Placement::on(0)))
      total += n;
    co_return total;
  };
  sim::co_spawn(sender(conn, tx));
  EXPECT_EQ(exp::run_task(rig.eng, receiver(conn, rx)), 32u * 256 * 1024);
  return obs.capture();
}

/// A SEND that reaches a QP with no posted receive, which then posts one:
/// reaches the `rnr` probe.
Observers::Captured run_rnr_send() {
  TinyRig rig;
  Observers obs(rig.eng);
  rdma::ConnectedPair pair(*rig.dev_a, *rig.dev_b, *rig.link);
  numa::Thread& tha = rig.proc_a->spawn_thread();
  numa::Thread& thb = rig.proc_b->spawn_thread();
  auto sbuf = make_buffer(*rig.a, 4096, 0);
  auto rbuf = make_buffer(*rig.b, 4096, 0);
  rdma::SendWr wr;
  wr.op = rdma::Opcode::kSend;
  wr.wr_id = 1;
  wr.local = &sbuf;
  wr.bytes = 4096;
  exp::run_task(rig.eng, pair.a().post_send(tha, wr));
  exp::run_task(rig.eng, pair.b().post_recv(thb, rdma::RecvWr{1, &rbuf}));
  EXPECT_TRUE(pair.b().recv_cq().try_poll().has_value());
  return obs.capture();
}

TEST(ObserverPin, ChaosRunsReproduceTraceStatsAndFlightBytes) {
  constexpr std::uint64_t kSeed = 1;
  const std::uint64_t total = 256ull << 20;
  const auto rftp = run_rftp_chaos(rftp_chaos_plan(kSeed, total), total, true);
  const auto crash = run_rftp_chaos(
      FaultPlan::parse("loss@5ms:n=3; crash@10ms:host=1,down=10ms; "
                       "hole@25ms:dur=2ms,dir=ba; "
                       "qpkill@40ms:qp=1"),
      total, true);
  const auto iser = run_iser_chaos(kSeed, true);
  const auto tcp = run_tcp_chaos(kSeed, true);
  const auto lossy = run_lossy_tcp();
  const auto rnr = run_rnr_send();
  ASSERT_TRUE(rftp.result.complete);
  ASSERT_TRUE(crash.result.complete);
  ASSERT_EQ(crash.result.crashes, 1u);

  expect_pinned("rftp", rftp.observed,
                {5204307312761291569ull, 6447483301515132448ull,
                 14482294846632569833ull});
  expect_pinned("rftp-crash", crash.observed,
                {9693685875816567347ull, 12415983727168878716ull,
                 4816452287066359001ull});
  expect_pinned("iser", iser.observed,
                {9785133413004289924ull, 12179610883604944944ull,
                 15303465518803493594ull});
  expect_pinned("tcp", tcp.observed,
                {1063866216643380068ull, 11878131878619925563ull,
                 10519472598810720339ull});
  expect_pinned("tcp-loss", lossy,
                {8461095367371574243ull, 3161895616370628984ull,
                 14893010747210507443ull});
  expect_pinned("rnr", rnr,
                {15717633000169746951ull, 12148056315722666643ull,
                 8625498120249342523ull});

  // Which of the 24 instrumented flight codes these runs reach. The other
  // seven (command-abandoned, data-loss, data-abort, session-abandoned,
  // false-suspect, dup-block, checksum-mismatch) need fault shapes these
  // runs do not exercise.
  std::set<std::string> reached;
  for (const auto* o : {&rftp.observed, &crash.observed, &iser.observed,
                        &tcp.observed, &lossy, &rnr})
    reached.merge(flight_codes(o->flight));
  const std::set<std::string> want{
      "block-drained", "block-filled", "block-posted", "command-retry",
      "crash",         "data-retry",   "grant-retransmit", "loss",
      "qp-kill",       "qp-recover",   "resume",       "retransmit",
      "rnr",           "rx-drop",      "stream-dead",  "wire-failure",
      "wr-flush"};
  EXPECT_EQ(reached, want);
}

}  // namespace
}  // namespace e2e::fault
