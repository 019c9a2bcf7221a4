// Determinism golden tests for the simulation core.
//
// These tests freeze the engine's event ordering: each scenario runs with a
// tracer installed and the exported Chrome trace is hashed. The golden
// hashes below were recorded before the allocation-free event-core overhaul
// (EventFn + 4-ary heap + pooled coroutine frames), so any change to event
// order — and therefore to any trace byte — fails here. Run the suite with
// --gtest_also_run_disabled_tests if you intentionally change event
// semantics and need new goldens; the failure message prints the new hash.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "exp/runner.hpp"
#include "fault/integrity.hpp"
#include "tcp/connection.hpp"
#include "testutil.hpp"
#include "trace/tracer.hpp"

namespace e2e {
namespace {

struct TraceRun {
  std::uint64_t hash = 0;
  std::uint64_t events = 0;
  std::size_t trace_bytes = 0;
};

/// Fixed iSER scenario: login, a mix of reads and writes across two LUNs,
/// with the resource sampler on. Every byte of the exported trace depends
/// on the engine's dispatch order.
TraceRun run_iser_scenario() {
  test::TinyRig rig;
  trace::Tracer tracer(rig.eng);
  tracer.install();
  tracer.enable_resource_sampler(sim::kMillisecond);

  test::TinyIscsi t(rig, 2, 8 << 20);
  numa::Thread& ith = *t.ith;
  t.iscsi.run_start(ith, *t.tth, 2);
  iscsi::Initiator& initiator = t.iscsi.initiator();

  auto buf = test::make_buffer(*rig.a, 4 << 20, 0);
  EXPECT_EQ(exp::run_task(rig.eng, initiator.submit_read(ith, 0, 0, 2048, buf)),
            scsi::Status::kGood);
  EXPECT_EQ(
      exp::run_task(rig.eng, initiator.submit_write(ith, 1, 0, 4096, buf)),
      scsi::Status::kGood);
  EXPECT_EQ(
      exp::run_task(rig.eng, initiator.submit_read(ith, 1, 1024, 8192, buf)),
      scsi::Status::kGood);
  EXPECT_EQ(
      exp::run_task(rig.eng, initiator.submit_write(ith, 0, 512, 1024, buf)),
      scsi::Status::kGood);

  tracer.sample_now();
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const std::string s = os.str();
  return TraceRun{fault::fnv1a(s), rig.eng.events_processed(), s.size()};
}

/// Fixed TCP scenario: flow-controlled lossy connection, so the trace
/// includes the per-ACK/per-loss cwnd samples and counters whose handles
/// the hot path caches.
TraceRun run_tcp_scenario() {
  test::TinyRig rig;
  trace::Tracer tracer(rig.eng);
  tracer.install();
  tracer.enable_resource_sampler(sim::kMillisecond);

  tcp::ConnectionOptions opts;
  opts.flow_controlled = true;
  opts.max_window_bytes = 1 << 20;
  opts.loss_rate = 1e-6;
  tcp::Connection conn(*rig.a, 0, *rig.b, 0, *rig.link, opts);
  numa::Thread& tx = rig.proc_a->spawn_thread();
  numa::Thread& rx = rig.proc_b->spawn_thread();
  const numa::Placement src = numa::Placement::on(0);
  const numa::Placement dst = numa::Placement::on(0);

  auto sender = [](tcp::Connection& c, numa::Thread& th,
                   numa::Placement buf) -> sim::Task<> {
    for (int i = 0; i < 32; ++i) co_await c.send(th, buf, 256 * 1024);
    c.shutdown(th);
  };
  auto receiver = [](tcp::Connection& c, numa::Thread& th,
                     numa::Placement buf) -> sim::Task<std::uint64_t> {
    std::uint64_t total = 0;
    for (;;) {
      const std::uint64_t n = co_await c.recv(th, buf);
      if (n == 0) co_return total;
      total += n;
    }
  };
  sim::co_spawn(sender(conn, tx, src));
  const std::uint64_t got = exp::run_task(rig.eng, receiver(conn, rx, dst));
  EXPECT_EQ(got, 32u * 256 * 1024);

  tracer.sample_now();
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const std::string s = os.str();
  return TraceRun{fault::fnv1a(s), rig.eng.events_processed(), s.size()};
}

// Golden values recorded against the pre-overhaul event core (binary
// std::priority_queue of std::function events, malloc'd coroutine frames).
// The overhaul must not change a single trace byte.
constexpr std::uint64_t kIserGoldenHash = 0xb395f731c87f013cull;
constexpr std::uint64_t kIserGoldenEvents = 364;
constexpr std::uint64_t kTcpGoldenHash = 0x2736609f52e1974bull;
constexpr std::uint64_t kTcpGoldenEvents = 266;

TEST(Determinism, IserScenarioMatchesRecordedGolden) {
  const TraceRun r = run_iser_scenario();
  EXPECT_EQ(r.hash, kIserGoldenHash)
      << "trace bytes changed; hash=0x" << std::hex << r.hash << std::dec
      << " events=" << r.events << " size=" << r.trace_bytes;
  EXPECT_EQ(r.events, kIserGoldenEvents);
}

TEST(Determinism, IserScenarioIsRunToRunIdentical) {
  const TraceRun a = run_iser_scenario();
  const TraceRun b = run_iser_scenario();
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.trace_bytes, b.trace_bytes);
}

TEST(Determinism, TcpLossyScenarioMatchesRecordedGolden) {
  const TraceRun r = run_tcp_scenario();
  EXPECT_EQ(r.hash, kTcpGoldenHash)
      << "trace bytes changed; hash=0x" << std::hex << r.hash << std::dec
      << " events=" << r.events << " size=" << r.trace_bytes;
  EXPECT_EQ(r.events, kTcpGoldenEvents);
}

TEST(Determinism, TcpLossyScenarioIsRunToRunIdentical) {
  const TraceRun a = run_tcp_scenario();
  const TraceRun b = run_tcp_scenario();
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_EQ(a.events, b.events);
}

}  // namespace
}  // namespace e2e
