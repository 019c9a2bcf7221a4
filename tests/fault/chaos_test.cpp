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
#include <vector>

#include "check/audit.hpp"
#include "exp/runner.hpp"
#include "fault/injector.hpp"
#include "fault/integrity.hpp"
#include "fault/plan.hpp"
#include "rftp/rftp.hpp"
#include "stats/registry.hpp"
#include "tcp/connection.hpp"
#include "testutil.hpp"
#include "trace/tracer.hpp"

namespace e2e::fault {
namespace {

using e2e::test::TinyIscsi;
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
  std::uint64_t duplicate_blocks = 0;
  std::uint64_t checksum_failures = 0;
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

/// /dev/null held for `hold` per block. On its `scribble_at`-th drain
/// (1-based; 0 never) it also leaves a stray write in the landing buffer,
/// so the next block to land there fails its checksum at the sink.
class FaultySink final : public rftp::DataSink {
 public:
  FaultySink(sim::SimDuration hold, int scribble_at)
      : hold_(hold), scribble_at_(scribble_at) {}

  sim::Task<> drain(numa::Thread& th, mem::Buffer& buf, std::uint64_t offset,
                    std::uint64_t len) override {
    co_await null_.drain(th, buf, offset, len);
    co_await sim::Delay{th.host().engine(), hold_};
    if (++drains_ == scribble_at_) buf.content_tag ^= 0x5a5a5a5a5a5a5a5aull;
  }

 private:
  rftp::NullSink null_;
  sim::SimDuration hold_;
  int scribble_at_;
  int drains_ = 0;
};

/// `sink` replaces the default /dev/null sink when given.
RftpChaosOutcome run_rftp_chaos(const FaultPlan& plan, std::uint64_t total,
                                bool observe,
                                rftp::DataSink* sink = nullptr) {
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
  sess.attach(inj);
  inj.arm();

  rftp::ZeroSource src(total);
  rftp::NullSink null_sink;
  RftpChaosOutcome out;
  out.result = exp::run_task(
      rig.eng, sess.run(src, sink != nullptr ? *sink : null_sink, total));
  rig.eng.run();  // drain any fault events scheduled past the transfer
  out.failovers = sess.failovers;
  out.retransmissions = sess.retransmissions;
  out.duplicate_blocks = sess.duplicate_blocks;
  out.checksum_failures = sess.checksum_failures;
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
// iSCSI workload shared by the iSER and TCP modes: n_cmds sequential WRITEs
// (or READs) at distinct LBAs. Returns the count of non-GOOD statuses and,
// for writes, accumulates the analytically expected integrity digest.

sim::Task<int> drive_ios(iscsi::Initiator& init, numa::Thread& th,
                         int n_cmds, std::uint32_t blocks_per_cmd,
                         mem::Buffer& buf, bool reads,
                         std::uint64_t& expected) {
  int bad = 0;
  for (int i = 0; i < n_cmds; ++i) {
    const std::uint64_t lba = std::uint64_t{static_cast<unsigned>(i)} *
                              blocks_per_cmd;
    const auto st =
        reads ? co_await init.submit_read(th, 0, lba, blocks_per_cmd, buf)
              : co_await init.submit_write(th, 0, lba, blocks_per_cmd, buf);
    if (st != scsi::Status::kGood) ++bad;
    else if (!reads) expected ^= block_range_tag(lba, blocks_per_cmd);
  }
  co_return bad;
}

struct IscsiChaosOutcome {
  int bad = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t skipped_events = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t data_losses = 0;
  std::uint64_t digest_errors = 0;
  bool abandoned = false;
  std::uint64_t writes_executed = 0;
  std::uint64_t written_digest = 0;
  std::uint64_t expected_digest = 0;
  Observers::Captured observed;
};

constexpr int kChaosWrites = 512;  // 2 GiB: 512 x 4 MiB WRITEs

/// The iSCSI workload (`ios` commands, writes unless `reads`) under `plan`.
/// Over iSER a QP kill or a target crash is walked back by the session's
/// recovery supervisor; over TCP the plan's qpkill has no QP to hit and is
/// counted as skipped, and the wire faults are all absorbed inside TCP.
/// Reads verify their digest, so a lost Data-In is re-driven.
IscsiChaosOutcome run_iscsi_chaos(exp::Transport transport,
                                  const FaultPlan& plan, int ios,
                                  bool observe, bool reads = false) {
  const bool over_iser = transport == exp::Transport::kIser;
  TinyRig rig;
  check::Auditor audit(rig.eng);
  std::optional<Observers> obs;
  if (observe) obs.emplace(rig.eng);
  exp::IscsiRigConfig cfg;
  cfg.transport = transport;
  // Capped retries absorb the loss bursts.
  cfg.command_timeout = (over_iser ? 2 : 5) * sim::kMillisecond;
  cfg.policy.verify_read_digest = reads;
  TinyIscsi t(rig, 1, 2ull << 30, cfg);
  exp::IscsiRig& iscsi = t.iscsi;
  numa::Thread& ith = *t.ith;
  numa::Thread* itx = over_iser ? nullptr : &rig.proc_a->spawn_thread();
  numa::Thread* ttx = over_iser ? nullptr : &rig.proc_b->spawn_thread();
  iscsi.run_start(ith, *t.tth, 2, itx, ttx);
  if (over_iser) {
    iser::SessionRecoveryPolicy rp;
    rp.mr_bytes_initiator = 4 << 20;
    rp.mr_bytes_target = 4 << 20;
    iscsi.iser()->enable_recovery(ith, *t.tth, rp);
  }

  FaultInjector inj(rig.eng, plan);
  iscsi.attach(inj);
  inj.arm();

  IscsiChaosOutcome out;
  const std::uint32_t blocks_per_cmd = (4u << 20) / 512;
  auto buf = make_buffer(*rig.a, 4 << 20, 0);
  out.bad = exp::run_task(
      rig.eng, drive_ios(iscsi.initiator(), ith, ios, blocks_per_cmd, buf,
                         reads, out.expected_digest));
  rig.eng.run();

  out.faults_injected = inj.faults_injected();
  out.skipped_events = inj.skipped_events();
  if (over_iser) {
    out.recoveries = iscsi.iser()->recoveries();
    out.abandoned = iscsi.iser()->abandoned();
    out.data_losses = iscsi.iser()->target_ep().data_losses();
  }
  out.digest_errors = iscsi.initiator().digest_errors();
  out.writes_executed = t.luns[0]->writes_executed();
  out.written_digest = t.luns[0]->written_digest();
  audit.finalize();
  EXPECT_TRUE(audit.ok()) << audit_report(audit);
  if (obs) out.observed = obs->capture();
  return out;
}

/// The seeded acceptance mix over `transport`: kChaosWrites WRITEs.
IscsiChaosOutcome run_iscsi_chaos(exp::Transport transport,
                                  std::uint64_t seed, bool observe) {
  return run_iscsi_chaos(transport,
                         chaos_plan(seed, 400 * sim::kMillisecond, 1),
                         kChaosWrites, observe);
}

TEST(ChaosIser, MultiGbWriteWorkloadSurvivesSeededPlan) {
  const auto out =
      run_iscsi_chaos(exp::Transport::kIser, chaos_seed(), false);
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
  const auto out =
      run_iscsi_chaos(exp::Transport::kTcp, chaos_seed(), false);
  EXPECT_EQ(out.bad, 0);
  EXPECT_GE(out.faults_injected, 4u);
  EXPECT_EQ(out.skipped_events, 1u);  // the qpkill, by design
  EXPECT_EQ(out.writes_executed,
            4u * static_cast<std::uint64_t>(kChaosWrites));
  EXPECT_EQ(out.written_digest, out.expected_digest);
}

// ---------------------------------------------------------------------------
// Observer pin: fixed-seed runs of every mode, plus one crash plan, a lossy
// TCP connection, an RNR stall, a slow-but-alive RFTP peer, two iSER
// give-ups, an iSER read that loses Data-In, an RFTP stream killed while
// its sink still holds a delivered block and an RFTP sink that corrupts a
// landing buffer, with the tracer and the stats registry installed. The
// Chrome trace, the stats JSON and the full flight stream are hashed whole
// (fault::fnv1a), so any change to how the layers instrument themselves
// must reproduce every byte. The seeds are fixed (not E2E_CHAOS_SEED):
// these are goldens, not a sweep.

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
  const auto iser = run_iscsi_chaos(exp::Transport::kIser, kSeed, true);
  const auto tcp = run_iscsi_chaos(exp::Transport::kTcp, kSeed, true);
  const auto lossy = run_lossy_tcp();
  const auto rnr = run_rnr_send();
  // A 600 ms latency spike outlasts the watchdog's 500 ms quiet period and
  // the transfer then resumes, so the suspicion clears as false.
  const auto slow = run_rftp_chaos(
      FaultPlan::parse("spike@10ms:dur=700ms,add=600ms"), total, true);
  // Give-ups. A target that crashes for good refuses every re-login until
  // the supervisor abandons the session. A blackhole alone never gets that
  // far (wire failures are retried per transfer and leave the QP up), but
  // it outlasts the initiator's command retries.
  const auto iser_crash = run_iscsi_chaos(
      exp::Transport::kIser, FaultPlan::parse("crash@5ms:host=1"), 4, true);
  const auto iser_hole = run_iscsi_chaos(
      exp::Transport::kIser, FaultPlan::parse("hole@5ms:dur=100s"), 4, true);
  // Seeded loss bursts under a READ workload: a burst that eats a
  // fire-and-forget Data-In write is a data loss, and the initiator's
  // digest check re-drives the read.
  FaultPlan::RandomParams loss;
  loss.horizon = 10 * sim::kMillisecond;
  loss.loss_bursts = 8;
  loss.flaps = 0;
  loss.spikes = 0;
  loss.holes = 0;
  loss.qp_kills = 0;
  const auto iser_read = run_iscsi_chaos(
      exp::Transport::kIser, FaultPlan::random(kSeed, loss), 16, true, true);
  // A stream killed while its sink still holds a delivered block: the kill
  // requeues the unconfirmed block, the dead stream's drainer finishes it
  // anyway, and the survivor's re-send lands as a duplicate.
  FaultySink holding(2 * sim::kMillisecond, 0);
  const auto dup = run_rftp_chaos(FaultPlan::parse("qpkill@30ms:qp=1"),
                                  total, true, &holding);
  // A stray write into a landing buffer: the next block to land there
  // fails its checksum and is re-sent. No fault plan can do this — a
  // corrupted message is a failed send the sender sees, never a bad
  // landing — so the sink plants the stray write itself.
  FaultySink scribbler(0, 5);
  const auto corrupt = run_rftp_chaos(FaultPlan{}, total, true, &scribbler);
  ASSERT_TRUE(rftp.result.complete);
  ASSERT_TRUE(crash.result.complete);
  ASSERT_EQ(crash.result.crashes, 1u);
  ASSERT_TRUE(slow.result.complete);
  ASSERT_TRUE(iser_crash.abandoned);
  ASSERT_GT(iser_hole.bad, 0);
  ASSERT_EQ(iser_read.bad, 0);
  ASSERT_GT(iser_read.data_losses, 0u);
  ASSERT_GT(iser_read.digest_errors, 0u);
  ASSERT_TRUE(dup.result.complete);
  ASSERT_TRUE(dup.result.integrity_ok);
  ASSERT_GT(dup.duplicate_blocks, 0u);
  ASSERT_TRUE(corrupt.result.complete);
  ASSERT_FALSE(corrupt.result.integrity_ok);  // the corruption was seen
  ASSERT_EQ(corrupt.checksum_failures, 1u);

  expect_pinned("rftp", rftp.observed,
                {14561560944262430103ull, 3320739935275370322ull,
                 10113870513154813939ull});
  expect_pinned("rftp-crash", crash.observed,
                {4138941120692502229ull, 2212892057983351702ull,
                 1560968991041383435ull});
  expect_pinned("iser", iser.observed,
                {2478608762675859550ull, 930269356411922258ull,
                 14889450708030077928ull});
  expect_pinned("tcp", tcp.observed,
                {10633268148506155338ull, 14420023536669325685ull,
                 2446584676699048841ull});
  expect_pinned("tcp-loss", lossy,
                {8923208090867677909ull, 15550841510173236910ull,
                 1141484273167970597ull});
  expect_pinned("rnr", rnr,
                {10962731940283697713ull, 7101249238323680185ull,
                 5325889727680415613ull});
  expect_pinned("rftp-slow", slow.observed,
                {14951405259168671592ull, 13021781329205812730ull,
                 12808873586490540583ull});
  expect_pinned("iser-crash", iser_crash.observed,
                {7044388350530465537ull, 17910694291699120021ull,
                 7935452701419215511ull});
  expect_pinned("iser-hole", iser_hole.observed,
                {15347058865432143458ull, 10332122640913914420ull,
                 2706847442946810705ull});
  expect_pinned("iser-read-loss", iser_read.observed,
                {5706993441865629440ull, 16289637923077592857ull,
                 11195290070567631663ull});
  expect_pinned("rftp-dup", dup.observed,
                {5239771785012957435ull, 16480293097310280790ull,
                 9748496144141323938ull});
  expect_pinned("rftp-corrupt", corrupt.observed,
                {13487225939056353347ull, 1562630827351375710ull,
                 1776729601440129916ull});

  // These runs reach all 24 instrumented flight codes.
  std::set<std::string> reached;
  for (const auto* o : {&rftp.observed, &crash.observed, &iser.observed,
                        &tcp.observed, &lossy, &rnr, &slow.observed,
                        &iser_crash.observed, &iser_hole.observed,
                        &iser_read.observed, &dup.observed,
                        &corrupt.observed})
    reached.merge(flight_codes(o->flight));
  const std::set<std::string> want{
      "block-drained",     "block-filled",     "block-posted",
      "checksum-mismatch", "command-abandoned", "command-retry",
      "crash",             "data-abort",        "data-loss",
      "data-retry",        "dup-block",         "false-suspect",
      "grant-retransmit",  "loss",              "qp-kill",
      "qp-recover",        "resume",            "retransmit",
      "rnr",               "rx-drop",           "session-abandoned",
      "stream-dead",       "wire-failure",      "wr-flush"};
  EXPECT_EQ(reached, want);
}

}  // namespace
}  // namespace e2e::fault
