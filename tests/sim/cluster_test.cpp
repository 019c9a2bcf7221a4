// sim::Cluster unit tests: window math, deterministic cross-shard merge
// order, the shard->worker pinning contract the thread_local pools rely
// on (worker 0 is the calling thread), the
// lowest-rank rethrow, and worker-count independence of the executed
// schedule — including through the real RDMA cross-shard delivery paths
// (kWrite delivery and the engine-hopping kRead responder segment).
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "mem/buffer.hpp"
#include "rdma/cm.hpp"
#include "sim/cluster.hpp"
#include "sim/sync.hpp"
#include "tcp/connection.hpp"
#include "testutil.hpp"

namespace e2e {
namespace {

TEST(ClusterTest, WorkerPinningContract) {
  // frame_pool.hpp and msg_pool.hpp depend on shard k running on worker
  // k % effective_workers for the whole run; freeze that mapping.
  sim::Cluster c(2);
  sim::Engine e0, e1, e2;
  EXPECT_EQ(c.add(e0), 0);
  EXPECT_EQ(c.add(e1), 1);
  EXPECT_EQ(c.add(e2), 2);
  EXPECT_EQ(c.worker_of(0), 0);
  EXPECT_EQ(c.worker_of(1), 1);
  EXPECT_EQ(c.worker_of(2), 0);

  // More workers than shards: clamped to the shard count.
  sim::Cluster wide(8);
  sim::Engine a, b;
  wide.add(a);
  wide.add(b);
  EXPECT_EQ(wide.worker_of(0), 0);
  EXPECT_EQ(wide.worker_of(1), 1);
}

TEST(ClusterTest, EngineRanksAndBackPointers) {
  sim::Cluster c(1);
  sim::Engine e0, e1;
  c.add(e0);
  c.add(e1);
  EXPECT_EQ(e0.cluster(), &c);
  EXPECT_EQ(e1.cluster(), &c);
  EXPECT_EQ(e0.rank(), 0);
  EXPECT_EQ(e1.rank(), 1);
  // An engine outside any cluster routes cross_post as a plain schedule.
  sim::Engine lone;
  EXPECT_EQ(lone.cluster(), nullptr);
  bool ran = false;
  lone.cross_post(lone, 5, [&ran] { ran = true; });
  lone.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(lone.now(), 5u);
}

TEST(ClusterTest, EngineAndClusterMayDieInEitherOrder) {
  // Fleet rigs own their engines in containers declared around the
  // Cluster in either order; ~Engine must retire its shard slot so the
  // surviving side never touches a dead peer.
  sim::Cluster c(2);
  {
    sim::Engine doomed;
    c.add(doomed);
    doomed.schedule_at(3, [] {});
  }  // doomed destroyed before the cluster
  sim::Engine survivor;
  c.add(survivor);
  bool ran = false;
  survivor.schedule_at(5, [&ran] { ran = true; });
  c.run();  // skips the retired rank-0 slot
  EXPECT_TRUE(ran);
  EXPECT_EQ(c.events_processed(), 1u);
}

TEST(ClusterTest, RunWindowStopsAtHorizon) {
  sim::Engine eng;
  std::vector<int> ran;
  for (int t = 0; t < 5; ++t)
    eng.schedule_at(static_cast<sim::SimTime>(t * 10), [&ran, t] {
      ran.push_back(t);
    });
  // Horizon is exclusive: events strictly before 30 run.
  EXPECT_EQ(eng.run_window(30), 3u);
  EXPECT_EQ(ran, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(eng.run_window(sim::kTimeInfinity), 2u);
  EXPECT_EQ(ran, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ClusterTest, CrossPostsMergeInTimeSourceSeqOrder) {
  // Three shards; shards 1 and 2 each cross-post two events to shard 0 at
  // identical timestamps. The delivered order must be (t, src_rank, seq)
  // regardless of post call order — shard 2 posting "first" cannot win a
  // tie against shard 1.
  sim::Cluster c(1);
  sim::Engine e0, e1, e2;
  c.add(e0);
  c.add(e1);
  c.add(e2);
  c.note_lookahead(10);

  std::vector<std::string> order;
  auto tag = [&order](std::string s) {
    return [&order, s = std::move(s)] { order.push_back(s); };
  };
  // Shard 1 and 2 send from their t=0 events; arrival t=10 >= horizon.
  e2.schedule_at(0, [&] {
    e2.cross_post(e0, 10, tag("src2-a"));
    e2.cross_post(e0, 10, tag("src2-b"));
  });
  e1.schedule_at(0, [&] {
    e1.cross_post(e0, 10, tag("src1-a"));
    e1.cross_post(e0, 12, tag("src1-late"));
  });
  c.run();
  EXPECT_EQ(order, (std::vector<std::string>{"src1-a", "src2-a", "src2-b",
                                             "src1-late"}));
  EXPECT_EQ(c.cross_posts(), 4u);
  EXPECT_GE(c.windows(), 1u);
}

/// Ping-pong over two shards via raw cross_post: each hop reschedules the
/// other side one lookahead later. Exercises many windows.
void ping(sim::Engine& self, sim::Engine& peer, int hops_left,
          std::vector<sim::SimTime>* times) {
  times->push_back(self.now());
  if (hops_left == 0) return;
  self.cross_post(peer, self.now() + 7,
                  [&peer, &self, hops_left, times] {
                    ping(peer, self, hops_left - 1, times);
                  });
}

TEST(ClusterTest, WorkerCountDoesNotChangeSchedule) {
  std::vector<std::vector<sim::SimTime>> runs;
  std::vector<std::uint64_t> windows;
  for (const int workers : {1, 2, 3}) {
    sim::Cluster c(workers);
    sim::Engine e0, e1;
    c.add(e0);
    c.add(e1);
    c.note_lookahead(7);
    std::vector<sim::SimTime> times;
    e0.schedule_at(0, [&] { ping(e0, e1, 40, &times); });
    c.run();
    runs.push_back(times);
    windows.push_back(c.windows());
    EXPECT_EQ(times.size(), 41u);
  }
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);
  EXPECT_EQ(windows[0], windows[1]);
  EXPECT_EQ(windows[0], windows[2]);
}

/// Three shards, each starting a token that hops around the ring over
/// 5 ns seams; every hop also schedules a local echo, so each window mixes
/// local and cross-shard work on all three shards. Every event logs its
/// (t, tag) and thread on the shard that runs it; a shard's log is only
/// touched by that shard's pinned worker.
struct TokenRing {
  struct Log {
    std::vector<std::pair<sim::SimTime, int>> events;
    std::vector<std::thread::id> threads;
  };
  sim::Cluster cluster;
  std::array<sim::Engine, 3> shards;
  std::array<Log, 3> logs;

  explicit TokenRing(int workers) : cluster(workers) {
    for (sim::Engine& e : shards) cluster.add(e);
    cluster.note_lookahead(5);
    for (int s = 0; s < 3; ++s)
      shards[s].schedule_at(0, [this, s] { hop(s, 12); });
  }
  void record(int s, int tag) {
    logs[s].events.emplace_back(shards[s].now(), tag);
    logs[s].threads.push_back(std::this_thread::get_id());
  }
  void hop(int s, int left) {
    record(s, left);
    if (left == 0) return;
    const int next = (s + 1) % 3;
    shards[s].schedule_after(2, [this, s] { record(s, -1); });
    shards[s].cross_post(shards[next], shards[s].now() + 5,
                         [this, next, left] { hop(next, left - 1); });
  }
};

TEST(ClusterTest, WorkerZeroIsTheCallingThread) {
  // Worker 0 is the caller, so every shard k with k % w == 0 keeps the
  // setup thread's thread_local pools (all three at one worker); any other
  // shard stays on one spawned worker for the whole run.
  const std::thread::id caller = std::this_thread::get_id();
  for (const int workers : {1, 2}) {
    SCOPED_TRACE(workers);
    TokenRing r(workers);
    r.cluster.run();
    EXPECT_GT(r.cluster.windows(), 1u);
    for (int s = 0; s < 3; ++s) {
      const std::vector<std::thread::id>& ids = r.logs[s].threads;
      ASSERT_EQ(ids.size(), 25u);  // 13 hops + 12 echoes
      for (const std::thread::id id : ids) {
        EXPECT_EQ(id == caller, s % workers == 0);
        EXPECT_EQ(id, ids.front());  // pinned: never migrates between windows
      }
    }
  }
}

TEST(ClusterTest, IdleClusterOpensNoWindow) {
  sim::Cluster c(2);
  sim::Engine e0, e1;
  c.add(e0);
  c.add(e1);
  c.note_lookahead(5);
  c.run();
  EXPECT_EQ(c.windows(), 0u);
  EXPECT_EQ(c.events_processed(), 0u);

  sim::Cluster empty(4);
  empty.run();
  EXPECT_EQ(empty.windows(), 0u);
}

/// Threads in this process (Linux /proc; 0 elsewhere, which makes the
/// leak checks below trivially pass).
std::size_t live_threads() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return 0;
  return static_cast<std::size_t>(
      std::distance(it, std::filesystem::directory_iterator{}));
}

/// Waits up to 2 s for the process to drop back to at most `n` threads:
/// a joined thread can stay listed in /proc/self/task for a moment after
/// join() returns, until the kernel reaps it.
bool threads_settle_to(std::size_t n) {
  for (int i = 0; i < 2000 && live_threads() > n; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  return live_threads() <= n;
}

TEST(ClusterTest, ShardExceptionLowestRankWins) {
  for (const int workers : {1, 2}) {
    SCOPED_TRACE(workers);
    sim::Cluster c(workers);
    sim::Engine e0, e1, e2;
    c.add(e0);
    c.add(e1);
    c.add(e2);
    c.note_lookahead(10);
    bool posted = false, late0 = false, late1 = false;
    // Shard 1 buffers a cross-post, then shards 1 and 0 throw in the same
    // window (horizon 11); at two workers they throw on different threads.
    e1.schedule_at(1, [&] { e1.cross_post(e0, 12, [&] { posted = true; }); });
    e1.schedule_at(3, [] { throw std::runtime_error("rank1"); });
    e0.schedule_at(3, [] { throw std::runtime_error("rank0"); });
    e2.schedule_at(3, [] {});
    e0.schedule_at(20, [&] { late0 = true; });
    e1.schedule_at(20, [&] { late1 = true; });

    const std::size_t threads_before = live_threads();
    try {
      c.run();
      ADD_FAILURE() << "run() swallowed the shard exceptions";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "rank0");
    }
    EXPECT_EQ(c.windows(), 1u);
    EXPECT_TRUE(threads_settle_to(threads_before));
    // Post-mortem: the buffered cross-post was merged into shard 0's heap.
    EXPECT_EQ(e0.next_event_time(), 12u);
    EXPECT_FALSE(posted);

    c.run();  // the survivors finish; no deadlock, no stale error
    EXPECT_TRUE(posted);
    EXPECT_TRUE(late0);
    EXPECT_TRUE(late1);
    EXPECT_TRUE(threads_settle_to(threads_before));
  }
}

TEST(ClusterTest, RunSequentialInterleavesShardsInGlobalOrder) {
  sim::Cluster c(1);
  sim::Engine e0, e1;
  c.add(e0);
  c.add(e1);
  std::vector<int> order;
  e0.schedule_at(5, [&] { order.push_back(0); });
  e1.schedule_at(3, [&] { order.push_back(1); });
  e0.schedule_at(9, [&] { order.push_back(2); });
  e1.schedule_at(9, [&] { order.push_back(3); });  // tie: rank 0 first
  c.run_sequential();
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2, 3}));
}

/// Full RDMA rig spanning two shards: a ConnectedPair whose endpoints live
/// on different engines, joined by a two-engine RoCE link.
struct CrossShardRig {
  sim::Cluster cluster;
  sim::Engine ea, eb;
  std::unique_ptr<numa::Host> ha, hb;
  std::unique_ptr<rdma::Device> da, db;
  std::unique_ptr<net::Link> link;
  std::unique_ptr<numa::Process> pa, pb;
  std::unique_ptr<rdma::ConnectedPair> cp;
  numa::Thread* ta = nullptr;
  numa::Thread* tb = nullptr;

  explicit CrossShardRig(int workers) : cluster(workers) {
    cluster.add(ea);
    cluster.add(eb);
    ha = std::make_unique<numa::Host>(ea, test::tiny_host("a"));
    hb = std::make_unique<numa::Host>(eb, test::tiny_host("b"));
    da = std::make_unique<rdma::Device>(*ha, ha->profile().nics[0]);
    db = std::make_unique<rdma::Device>(*hb, hb->profile().nics[0]);
    link = net::make_roce_lan(ea, eb, "seam");
    link->bind_endpoints(ha.get(), hb.get());
    cp = std::make_unique<rdma::ConnectedPair>(*da, *db, *link);
    pa = std::make_unique<numa::Process>(*ha, "a", numa::NumaBinding::bound(0));
    pb = std::make_unique<numa::Process>(*hb, "b", numa::NumaBinding::bound(0));
    ta = &pa->spawn_thread(da->node());
    tb = &pb->spawn_thread(db->node());
    bool up = false;
    sim::co_spawn([](CrossShardRig* r, bool* done) -> sim::Task<> {
      co_await r->cp->establish(*r->ta, *r->tb);
      *done = true;
    }(this, &up));
    cluster.run_sequential();
    EXPECT_TRUE(up);
    // A cross-shard link must have declared its latency as lookahead.
    EXPECT_LT(cluster.lookahead(), sim::kTimeInfinity);
  }
};

sim::Task<> write_n(CrossShardRig* r, mem::Buffer* local, mem::Buffer* remote,
                    int n, int* completed) {
  for (int i = 0; i < n; ++i) {
    rdma::SendWr wr;
    wr.wr_id = static_cast<std::uint64_t>(i);
    wr.op = rdma::Opcode::kWrite;
    wr.local = local;
    wr.remote = rdma::RemoteKey{remote};
    wr.bytes = 64 * 1024;
    co_await r->cp->a().post_send(*r->ta, wr);
    const auto wc = co_await r->cp->a().send_cq().wait(*r->ta);
    EXPECT_TRUE(wc.success);
    ++*completed;
  }
}

TEST(ClusterTest, CrossShardWriteDeliversIdenticallyAtAnyWorkerCount) {
  std::vector<std::pair<sim::SimTime, sim::SimTime>> finals;
  for (const int workers : {1, 2}) {
    CrossShardRig r(workers);
    mem::Buffer local, remote;
    local.placement = r.pa->alloc(64 * 1024, r.da->node());
    remote.placement = r.pb->alloc(64 * 1024, r.db->node());
    local.registered = remote.registered = true;
    int completed = 0;
    sim::co_spawn(write_n(&r, &local, &remote, 8, &completed));
    r.cluster.run();
    EXPECT_EQ(completed, 8);
    EXPECT_GT(r.cluster.cross_posts(), 0u);
    finals.emplace_back(r.ea.now(), r.eb.now());
  }
  EXPECT_EQ(finals[0], finals[1]);
}

sim::Task<> read_one(CrossShardRig* r, mem::Buffer* local, mem::Buffer* remote,
                     bool* ok) {
  rdma::SendWr wr;
  wr.op = rdma::Opcode::kRead;
  wr.local = local;
  wr.remote = rdma::RemoteKey{remote};
  wr.bytes = 128 * 1024;
  co_await r->cp->a().post_send(*r->ta, wr);
  const auto wc = co_await r->cp->a().send_cq().wait(*r->ta);
  EXPECT_TRUE(wc.success);
  *ok = true;
}

TEST(ClusterTest, CrossShardReadHopsToResponderAndBack) {
  // kRead's responder-side segment (DMA fetch + wire transmit) must run on
  // the remote shard; the sampled content tag must still land in the local
  // buffer exactly as in the single-engine path.
  std::vector<sim::SimTime> finals;
  for (const int workers : {1, 2}) {
    CrossShardRig r(workers);
    mem::Buffer local, remote;
    local.placement = r.pa->alloc(128 * 1024, r.da->node());
    remote.placement = r.pb->alloc(128 * 1024, r.db->node());
    local.registered = remote.registered = true;
    remote.content_tag = 0xfeedbeefull;
    bool ok = false;
    sim::co_spawn(read_one(&r, &local, &remote, &ok));
    r.cluster.run();
    EXPECT_TRUE(ok);
    EXPECT_EQ(local.content_tag, 0xfeedbeefull);
    finals.push_back(r.ea.now());
  }
  EXPECT_EQ(finals[0], finals[1]);
}

TEST(ClusterTest, TcpRefusesCrossShardEndpoints) {
  // tcp::Connection is engine-local by design; a connection whose hosts
  // live on different shards must fail loudly at construction, not
  // corrupt two heaps at runtime.
  sim::Cluster c(1);
  sim::Engine ea, eb;
  c.add(ea);
  c.add(eb);
  numa::Host ha(ea, test::tiny_host("a"));
  numa::Host hb(eb, test::tiny_host("b"));
  auto link = net::make_roce_lan(ea, eb, "seam");
  link->bind_endpoints(&ha, &hb);
  EXPECT_THROW(tcp::Connection(ha, 0, hb, 0, *link), std::logic_error);
}

}  // namespace
}  // namespace e2e
