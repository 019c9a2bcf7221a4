// Flat pending-table behavior under faults: rendezvous slots recycle
// across QP-kill recovery instead of accumulating, and a seeded faulted
// run stays byte-identical (golden-hashed trace) now that command
// rendezvous, replay caches, and send-completion records all live in flat
// tables.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "fault/injector.hpp"
#include "fault/integrity.hpp"
#include "fault/plan.hpp"
#include "iscsi/initiator.hpp"
#include "iscsi/target.hpp"
#include "iser/session.hpp"
#include "mem/tmpfs.hpp"
#include "testutil.hpp"
#include "trace/tracer.hpp"

namespace e2e::fault {
namespace {

using e2e::test::TinyRig;
using e2e::test::make_buffer;

/// iSER write workload under a fixed seeded fault plan (loss bursts, a
/// flap, a spike, a blackhole and one QP kill). Returns the trace hash
/// when `traced`; also reports initiator slot usage.
struct FaultedRunOutcome {
  int bad_statuses = 0;
  std::size_t pending_slots = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t trace_hash = 0;
};

FaultedRunOutcome run_faulted_iser(std::uint64_t seed, int n_cmds,
                                   bool traced) {
  TinyRig rig;
  std::unique_ptr<trace::Tracer> tracer;
  if (traced) {
    tracer = std::make_unique<trace::Tracer>(rig.eng);
    tracer->install();
  }
  mem::Tmpfs fs(*rig.b);
  auto& f = fs.create("lun0", 256 << 20, numa::MemPolicy::kBind, 0);
  scsi::Lun lun(0, fs, f);
  iser::IserSession session(*rig.dev_a, *rig.dev_b, *rig.link, *rig.proc_a,
                            *rig.proc_b);
  mem::BufferPool staging(*rig.b, "staging", 4, 1 << 20,
                          numa::MemPolicy::kBind, 0);
  staging.mark_registered();
  iscsi::Target target(*rig.proc_b, session.target_ep(),
                       std::vector<scsi::Lun*>{&lun}, staging);
  iscsi::Initiator initiator(*rig.proc_a, session.initiator_ep(),
                             2 * sim::kMillisecond, iscsi::RetryPolicy{});
  numa::Thread& ith = rig.proc_a->spawn_thread();
  numa::Thread& tth = rig.proc_b->spawn_thread();
  exp::run_task(rig.eng, session.start(ith, tth));
  target.start(2);
  iscsi::LoginParams params;
  EXPECT_TRUE(exp::run_task(rig.eng, initiator.login(ith, params)));
  initiator.start_dispatcher(ith);
  iser::SessionRecoveryPolicy rp;
  rp.mr_bytes_initiator = 4 << 20;
  rp.mr_bytes_target = 4 << 20;
  session.enable_recovery(ith, tth, rp);

  FaultPlan::RandomParams p;
  p.horizon = 100 * sim::kMillisecond;
  p.links = 1;
  p.qps = 1;
  p.loss_bursts = 3;
  p.max_burst = 4;
  p.flaps = 1;
  p.max_flap = 5 * sim::kMillisecond;
  p.spikes = 1;
  p.max_spike = 10 * sim::kMillisecond;
  p.max_extra_latency = sim::kMillisecond;
  p.holes = 1;
  p.max_hole = 3 * sim::kMillisecond;
  p.qp_kills = 1;
  FaultInjector inj(rig.eng, FaultPlan::random(seed, p));
  inj.attach(*rig.link);
  inj.set_qp_kill_handler([&session](int) { session.kill(); });
  inj.arm();

  FaultedRunOutcome out;
  const std::uint32_t blocks_per_cmd = (1u << 20) / 512;
  auto buf = make_buffer(*rig.a, 1 << 20, 0);
  auto drive = [](iscsi::Initiator& init, numa::Thread& th, int cmds,
                  std::uint32_t blocks, mem::Buffer& b,
                  int& bad) -> sim::Task<> {
    for (int i = 0; i < cmds; ++i) {
      const std::uint64_t lba =
          std::uint64_t{static_cast<unsigned>(i)} * blocks;
      const auto st = co_await init.submit_write(th, 0, lba, blocks, b);
      if (st != scsi::Status::kGood) ++bad;
    }
  };
  exp::run_task(rig.eng,
                drive(initiator, ith, n_cmds, blocks_per_cmd, buf,
                      out.bad_statuses));
  rig.eng.run();

  out.pending_slots = initiator.pending_slots();
  out.recoveries = session.recoveries();
  if (traced) {
    std::ostringstream os;
    tracer->write_chrome_trace(os);
    out.trace_hash = fnv1a(os.str());
  }
  return out;
}

TEST(FlatPending, SlotsRecycleAcrossQpKillRecovery) {
  const auto out = run_faulted_iser(/*seed=*/7, /*n_cmds=*/96, false);
  EXPECT_EQ(out.bad_statuses, 0);
  EXPECT_GE(out.recoveries, 1u) << "plan must exercise the QP kill path";
  // 96 sequential commands, some retried/abandoned across a QP kill: the
  // rendezvous arena must stay at the concurrency high-water mark (one
  // in-flight command, plus at most a stale slot straddling the recovery),
  // not grow with command count.
  EXPECT_LE(out.pending_slots, 2u);
}

TEST(FlatPending, FaultedRunTraceIsRunToRunIdentical) {
  const auto a = run_faulted_iser(/*seed=*/11, /*n_cmds=*/48, true);
  const auto b = run_faulted_iser(/*seed=*/11, /*n_cmds=*/48, true);
  EXPECT_EQ(a.bad_statuses, 0);
  ASSERT_NE(a.trace_hash, 0u);
  EXPECT_EQ(a.trace_hash, b.trace_hash)
      << "same seed, same flat tables -> byte-identical faulted trace";
}

// Golden recorded with the flat-table protocol path (this PR). Guards the
// hash-order independence promise: faulted-run traces must not depend on
// hash-table iteration order anywhere. If you intentionally change event
// semantics, re-record from the failure message.
// Re-recorded when sim::Rng dropped the std::*_distribution adaptors for
// portable explicit arithmetic: the seeded fault plan draws a different
// (now platform-independent) schedule.
constexpr std::uint64_t kFaultedGoldenHash = 0x7780b91344020f86ull;

TEST(FlatPending, FaultedRunMatchesRecordedGolden) {
  const auto r = run_faulted_iser(/*seed=*/11, /*n_cmds=*/48, true);
  EXPECT_EQ(r.trace_hash, kFaultedGoldenHash)
      << "trace bytes changed; new hash=0x" << std::hex << r.trace_hash;
}

}  // namespace
}  // namespace e2e::fault
