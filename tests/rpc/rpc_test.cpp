// rpc layer unit tests: recv-ring exhaustion surfaces as an RNR stall (not
// a drop or an error), completion batching flushes a lone CQE immediately
// on an idle endpoint, unanswered calls are re-sent on their own deadlines
// until they fail, and the call-slot generation wraps 0xFFFF -> 1 with the
// documented 65535-recycle ABA window.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "exp/runner.hpp"
#include "mem/msg_pool.hpp"
#include "rdma/cm.hpp"
#include "rpc/rpc.hpp"
#include "sim/sim.hpp"
#include "testutil.hpp"
#include "trace/tracer.hpp"

namespace e2e::rpc {
namespace {

using e2e::test::make_buffer;
using e2e::test::TinyRig;

struct Ping {
  std::uint64_t seq = 0;
};

/// Echoes the request payload straight back, same wire size.
class EchoHandler final : public RpcServer::Handler {
 public:
  sim::Task<RpcServer::Reply> handle(const RpcServer::Request& req) override {
    RpcServer::Reply r;
    r.bytes = req.bytes;
    r.payload = req.payload;
    co_return r;
  }
};

/// Echoes the requests `answer` accepts; every other request parks its
/// handler coroutine forever, so that call is never answered.
class SelectiveHandler final : public RpcServer::Handler {
 public:
  SelectiveHandler(sim::Engine& eng, std::function<bool(std::uint64_t)> answer)
      : never_(eng), answer_(std::move(answer)) {}

  sim::Task<RpcServer::Reply> handle(const RpcServer::Request& req) override {
    const auto* ping = req.payload.as<Ping>();
    if (ping == nullptr || !answer_(ping->seq)) co_await never_.wait();
    RpcServer::Reply r;
    r.bytes = req.bytes;
    r.payload = req.payload;
    co_return r;
  }

 private:
  sim::ManualEvent never_;
  std::function<bool(std::uint64_t)> answer_;
};

struct RpcRig : ::testing::Test {
  TinyRig rig;
  std::unique_ptr<rdma::ConnectedPair> cp;
  numa::Thread* ta = nullptr;
  numa::Thread* tb = nullptr;
  mem::Buffer ring_a{}, ring_b{};
  EchoHandler echo;
  RpcServer::Handler* handler = &echo;  // what build() serves with
  std::unique_ptr<RpcClient> client;
  std::unique_ptr<RpcServer> server;

  /// Builds both endpoints with `cfg` and brings the pair up.
  void build(RpcConfig cfg) {
    cp = std::make_unique<rdma::ConnectedPair>(*rig.dev_a, *rig.dev_b,
                                               *rig.link);
    ta = &rig.proc_a->spawn_thread();
    tb = &rig.proc_b->spawn_thread();
    ring_a = make_buffer(*rig.a, 1 << 20, 0);
    ring_b = make_buffer(*rig.b, 1 << 20, 0);
    client = std::make_unique<RpcClient>(cp->a(), *ta, *ta, ring_a, cfg);
    server =
        std::make_unique<RpcServer>(cp->b(), *tb, *tb, ring_b, *handler, cfg);
    exp::run_task(rig.eng, up());
  }

  sim::Task<> up() {
    co_await cp->establish(*ta, *tb);
    co_await client->start();
    co_await server->start();
  }

  sim::Task<> one_call(std::uint64_t bytes, std::uint64_t seq, int* ok_count,
                       int* live) {
    const auto rep = co_await client->call(bytes, mem::make_msg<Ping>(Ping{seq}));
    if (rep.ok) ++*ok_count;
    --*live;
  }

  /// One call issued `after` from now; notes the instant it returns.
  sim::Task<> timed_call(sim::SimDuration after, std::uint64_t seq, bool* ok,
                         sim::SimTime* issued, sim::SimTime* returned) {
    co_await sim::Delay{rig.eng, after};
    *issued = rig.eng.now();
    const auto rep = co_await client->call(256, mem::make_msg<Ping>(Ping{seq}));
    *ok = rep.ok;
    *returned = rig.eng.now();
  }

  /// Runs the engine dry one instant at a time and returns every instant
  /// at which the client re-sent a request (one entry per re-send).
  std::vector<sim::SimTime> run_noting_resends() {
    std::vector<sim::SimTime> at;
    std::uint64_t seen = client->retries();
    while (!rig.eng.idle()) {
      rig.eng.run_until(rig.eng.next_event_time());
      for (; seen < client->retries(); ++seen) at.push_back(rig.eng.now());
    }
    return at;
  }

  /// Back-to-back calls `first`, `first` + 1, ... through `last`; notes
  /// when the last one was issued.
  sim::Task<> call_range(std::uint64_t first, std::uint64_t last,
                         sim::SimTime* last_issued) {
    for (std::uint64_t seq = first; seq <= last; ++seq) {
      *last_issued = rig.eng.now();
      (void)co_await client->call(64, mem::make_msg<Ping>(Ping{seq}));
    }
  }

  /// `n` back-to-back calls, noting the deepest event heap seen as each
  /// one returns.
  sim::Task<> calls_sampling_depth(std::uint64_t n, std::uint64_t* ok,
                                   std::size_t* deepest) {
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto rep = co_await client->call(256, mem::make_msg<Ping>(Ping{i}));
      if (rep.ok) ++*ok;
      *deepest = std::max(*deepest, rig.eng.queue_depth());
    }
  }

  sim::Task<> serial_calls(std::uint64_t n, sim::SimTime* worst) {
    for (std::uint64_t i = 0; i < n; ++i) {
      const sim::SimTime t0 = rig.eng.now();
      const auto rep = co_await client->call(256, mem::make_msg<Ping>(Ping{i}));
      EXPECT_TRUE(rep.ok);
      *worst = std::max(*worst, rig.eng.now() - t0);
    }
  }
};

TEST_F(RpcRig, RecvRingExhaustionStallsThenRecovers) {
  trace::Tracer tracer(rig.eng);
  tracer.install();
  RpcConfig cfg;
  cfg.recv_ring = 2;  // far below the in-flight depth: arrivals go RNR
  cfg.window = 8;
  build(cfg);
  int ok = 0, live = 32;
  for (std::uint64_t i = 0; i < 32; ++i)
    sim::co_spawn(one_call(256, i, &ok, &live));
  rig.eng.run();
  // Every call still completes: RNR parks the inbound pipeline until the
  // reaper refills the ring, it never drops or errors a message.
  EXPECT_EQ(live, 0);
  EXPECT_EQ(ok, 32);
  EXPECT_EQ(client->calls_issued(), 32u);
  EXPECT_EQ(server->calls_served(), 32u);
  EXPECT_EQ(client->retries(), 0u);
  EXPECT_EQ(client->calls_failed(), 0u);
  // ...and the stall is observable: the QP counted receiver-not-ready
  // waits while the 2-deep ring lagged the 8-deep window.
  EXPECT_GT(tracer.counter_value("rdma/rnr_waits"), 0u);
}

TEST_F(RpcRig, AmpleRingNeverGoesRnr) {
  trace::Tracer tracer(rig.eng);
  tracer.install();
  RpcConfig cfg;
  cfg.recv_ring = 64;
  cfg.window = 8;
  build(cfg);
  int ok = 0, live = 32;
  for (std::uint64_t i = 0; i < 32; ++i)
    sim::co_spawn(one_call(256, i, &ok, &live));
  rig.eng.run();
  EXPECT_EQ(ok, 32);
  EXPECT_EQ(tracer.counter_value("rdma/rnr_waits"), 0u);
}

TEST_F(RpcRig, IdleCompletionBatchFlushesImmediately) {
  build(RpcConfig{});
  // Strictly serial calls: at most one WR and one CQE exists at a time, so
  // batching must degenerate to singletons and add zero latency.
  sim::SimTime worst = 0;
  exp::run_task(rig.eng, serial_calls(8, &worst));
  // A lone completion is reaped the moment it lands (the blocking CQ wait
  // doubles as flush-on-idle): each round trip finishes in microseconds,
  // never waiting out a batch timer or the 5 ms retry timer.
  EXPECT_GT(worst, 0);
  EXPECT_LT(worst, sim::kMillisecond);
  EXPECT_EQ(client->retries(), 0u);
  // Serial traffic coalesces nothing: one WR per doorbell, one CQE per
  // poll batch, on both endpoints.
  EXPECT_EQ(client->doorbells(), client->doorbell_wrs());
  EXPECT_EQ(client->poll_batches(), client->poll_cqes());
  EXPECT_EQ(server->doorbells(), server->doorbell_wrs());
  EXPECT_EQ(server->poll_batches(), server->poll_cqes());
}

TEST_F(RpcRig, PipelinedCallsCoalesceDoorbells) {
  RpcConfig cfg;
  cfg.window = 16;
  cfg.doorbell_batch = 4;
  build(cfg);
  int ok = 0, live = 64;
  for (std::uint64_t i = 0; i < 64; ++i)
    sim::co_spawn(one_call(256, i, &ok, &live));
  rig.eng.run();
  EXPECT_EQ(ok, 64);
  // With 16 calls in flight the pump drains its queue behind shared
  // doorbells: strictly fewer doorbells than WRs.
  EXPECT_EQ(client->doorbell_wrs(), 64u);
  EXPECT_LT(client->doorbells(), client->doorbell_wrs());
}

TEST_F(RpcRig, UnansweredCallsResendOnTheirOwnDeadlines) {
  SelectiveHandler silent(rig.eng, [](std::uint64_t) { return false; });
  handler = &silent;
  RpcConfig cfg;
  cfg.max_retries = 3;
  build(cfg);
  const sim::SimTime t0 = rig.eng.now();
  constexpr sim::SimDuration kR = 5 * sim::kMillisecond;  // retry_after
  constexpr sim::SimDuration kGap = 2 * sim::kMillisecond;
  bool ok_a = true, ok_b = true;
  sim::SimTime issued_a = 0, issued_b = 0, failed_a = 0, failed_b = 0;
  sim::co_spawn(timed_call(0, 0, &ok_a, &issued_a, &failed_a));
  sim::co_spawn(timed_call(kGap, 1, &ok_b, &issued_b, &failed_b));
  const auto resends = run_noting_resends();
  ASSERT_EQ(issued_a, t0);
  ASSERT_EQ(issued_b, t0 + kGap);
  // Every re-send lands exactly on issued_at + k * retry_after, the two
  // calls interleaving by deadline; the firing past max_retries fails the
  // call instead of re-sending it.
  EXPECT_EQ(resends,
            (std::vector<sim::SimTime>{t0 + kR, t0 + kGap + kR, t0 + 2 * kR,
                                       t0 + kGap + 2 * kR, t0 + 3 * kR,
                                       t0 + kGap + 3 * kR}));
  EXPECT_EQ(client->retries(), 6u);
  EXPECT_EQ(client->calls_failed(), 2u);
  EXPECT_FALSE(ok_a);
  EXPECT_FALSE(ok_b);
  EXPECT_EQ(failed_a, t0 + 4 * kR);
  EXPECT_EQ(failed_b, t0 + kGap + 4 * kR);
  EXPECT_EQ(server->calls_served(), 0u);
}

TEST_F(RpcRig, CleanCallsParkNoTimerPerCall) {
  RpcConfig cfg;
  cfg.window = 16;
  build(cfg);
  // 100 windows' worth of calls, all answered within microseconds, so
  // every one of them is issued well inside one retry_after.
  constexpr std::uint64_t kPerCaller = 100;
  std::uint64_t ok = 0;
  std::size_t deepest = 0;
  for (std::size_t w = 0; w < cfg.window; ++w)
    sim::co_spawn(calls_sampling_depth(kPerCaller, &ok, &deepest));
  rig.eng.run();
  ASSERT_EQ(ok, kPerCaller * cfg.window);
  EXPECT_EQ(client->retries(), 0u);
  // The client parks at most one retry timer however many calls it has
  // answered, so the heap stays near the window's own working set instead
  // of growing by one dead timer per call.
  EXPECT_GT(deepest, 0u);
  EXPECT_LE(deepest, 4 * cfg.window);
}

TEST_F(RpcRig, RetryEntryOfARecycledSlotNeverResendsTheNewCall) {
  // Call 0 is never answered, so its retry entry holds the queue front and
  // every later entry stays queued behind it until call 0's deadline.
  // Call 1 takes the other slot of a 2-call window and is answered; then
  // 65535 answered calls recycle that slot through a full generation, so
  // call kWrapped is issued under call 1's exact id while call 1's old
  // entry is still queued. That call is never answered either.
  constexpr std::uint64_t kWrapped = 1 + 65535;
  SelectiveHandler some(rig.eng, [](std::uint64_t seq) {
    return seq != 0 && seq != kWrapped;
  });
  handler = &some;
  RpcConfig cfg;
  cfg.window = 2;
  cfg.retry_after = sim::kMinute;  // the 65535 recycles fit well inside
  cfg.max_retries = 1;
  build(cfg);
  const sim::SimTime t0 = rig.eng.now();
  bool ok0 = true;
  sim::SimTime issued0 = 0, failed0 = 0, wrapped_issued = 0;
  sim::co_spawn(timed_call(0, 0, &ok0, &issued0, &failed0));
  sim::co_spawn(call_range(1, kWrapped, &wrapped_issued));
  const auto resends = run_noting_resends();
  ASSERT_EQ(issued0, t0);
  ASSERT_LT(wrapped_issued, t0 + cfg.retry_after);
  // Call 1's stale entry expires with call 0's, at t0 + retry_after, and
  // its id resolves to the wrapped call, but that call was armed for a
  // later deadline: only call 0 is re-sent then, and the wrapped call is
  // re-sent on its own deadline.
  EXPECT_EQ(resends, (std::vector<sim::SimTime>{
                         t0 + cfg.retry_after,
                         wrapped_issued + cfg.retry_after}));
  EXPECT_EQ(client->calls_failed(), 2u);
  EXPECT_EQ(failed0, t0 + 2 * cfg.retry_after);
  EXPECT_EQ(server->calls_served(), kWrapped - 1);
}

TEST(CallTableTest, GenerationWrapsSkippingZero) {
  sim::Engine eng;
  CallTable table(eng);
  CallTable::Call& first = table.begin();
  const std::uint32_t first_id = first.id;
  EXPECT_EQ(first_id, 1u);  // slot 0, generation 1
  EXPECT_EQ(table.find(first_id), &first);
  table.end(first);
  EXPECT_EQ(table.find(first_id), nullptr);  // released id goes stale
  EXPECT_EQ(table.live(), 0u);

  // Recycle the single slot through a full generation cycle. Generation 0
  // is never issued (id 0 stays a null sentinel) and every stale id stays
  // unresolvable until the wrap.
  int zero_gens = 0;
  for (int i = 0; i < 65534; ++i) {
    CallTable::Call& c = table.begin();
    ASSERT_EQ(c.id >> 16, 0u);  // same recycled slot throughout
    if ((c.id & 0xFFFFu) == 0u) ++zero_gens;
    ASSERT_NE(c.id, first_id);  // not wrapped yet
    table.end(c);
    ASSERT_EQ(table.find(c.id), nullptr);
  }
  EXPECT_EQ(zero_gens, 0);

  // 1 + 65534 acquires so far: the next one is recycle number 65535 and
  // wraps the generation 0xFFFF -> 1, reissuing the original id. This is
  // the documented ABA window — harmless because the client window cap
  // makes a call outliving 65535 recycles of its own slot impossible.
  CallTable::Call& wrapped = table.begin();
  EXPECT_EQ(wrapped.id, first_id);
  EXPECT_EQ(table.find(first_id), &wrapped);
  EXPECT_EQ(table.live(), 1u);
  table.end(wrapped);
}

TEST(CallTableTest, DistinctSlotsForConcurrentCalls) {
  sim::Engine eng;
  CallTable table(eng);
  CallTable::Call& a = table.begin();
  CallTable::Call& b = table.begin();
  EXPECT_NE(a.id, b.id);
  EXPECT_NE(a.id >> 16, b.id >> 16);
  EXPECT_EQ(table.live(), 2u);
  EXPECT_EQ(table.find(a.id), &a);
  EXPECT_EQ(table.find(b.id), &b);
  table.end(a);
  EXPECT_EQ(table.find(a.id), nullptr);
  EXPECT_EQ(table.find(b.id), &b);  // releasing one slot can't alias another
  table.end(b);
  EXPECT_EQ(table.live(), 0u);
}

}  // namespace
}  // namespace e2e::rpc
