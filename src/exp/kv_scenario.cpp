// KV scenario implementation on exp::ClusterHarness, which owns the
// shards, phases, merge and teardown (see cluster_harness.hpp). This file
// adds the per-pair rpc plane and KvStore, the one-sided READ plane, the
// cross-shard ring rpc connections and the closed-loop workload.
#include "exp/kv_scenario.hpp"

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "apps/kv.hpp"
#include "exp/cluster_harness.hpp"
#include "net/link.hpp"
#include "numa/host.hpp"
#include "numa/process.hpp"
#include "rdma/cm.hpp"
#include "rpc/rpc.hpp"
#include "stats/histogram.hpp"

namespace e2e::exp {

namespace {

/// One kv pair (host a = client, host b = server). Member order is
/// destruction-safe: rpc endpoints (whose channels live on the engine)
/// tear down before the connections they ride.
struct KvRig : ClusterShard {
  std::unique_ptr<rdma::ProtectionDomain> pd_a, pd_b;

  numa::Thread* c_post = nullptr;  // client post/reap
  numa::Thread* c_reap = nullptr;
  numa::Thread* s_post = nullptr;  // server post/reap
  numa::Thread* s_reap = nullptr;
  numa::Thread* c_rec = nullptr;  // fault-recovery handshake threads
  numa::Thread* s_rec = nullptr;

  mem::Buffer client_ring{}, server_ring{};
  std::unique_ptr<apps::KvStore> store;
  std::unique_ptr<apps::KvHandler> handler;
  std::unique_ptr<rdma::ConnectedPair> cp;  // rpc plane
  std::unique_ptr<rpc::RpcClient> client;
  std::unique_ptr<rpc::RpcServer> server;

  // One-sided GET plane: one QP per closed-loop worker, so each worker's
  // send CQ carries only its own READ completions.
  std::vector<std::unique_ptr<rdma::ConnectedPair>> read_cps;
  std::vector<numa::Thread*> read_th;
  mem::Buffer read_local{};

  // Cross-shard ring rpc over the harness's ring_cp: this rig's client
  // into the next rig's server. The b-side endpoint (ring_server) is built
  // from the *next* rig's process/threads/buffer and handler.
  numa::Thread* ring_c_post = nullptr;
  numa::Thread* ring_c_reap = nullptr;
  numa::Thread* ring_s_post = nullptr;  // spawned from next->pb
  numa::Thread* ring_s_reap = nullptr;
  mem::Buffer ring_client_ring{}, ring_server_ring{};
  std::unique_ptr<rpc::RpcClient> ring_client;
  std::unique_ptr<rpc::RpcServer> ring_server;

  // Workload state.
  std::unique_ptr<sim::Rng> rng;
  std::unique_ptr<apps::Zipf> zipf;
  std::uint64_t next_op = 0;  // shared closed-loop op counter
  std::uint64_t ops_done = 0, gets = 0, puts = 0, remote_ops = 0;
  std::uint64_t failed = 0;
  int workers_live = 0;
  stats::Histogram get_lat, put_lat;
  sim::SimTime t_start = 0;
  sim::SimTime last_done = 0;
  bool established = false;
  bool ring_established = false;

  // The ring endpoints ride ring_cp and the next rig's handler.
  void release_ring() override {
    ring_client.reset();
    ring_server.reset();
  }
};

sim::Task<> kv_establish(KvRig* rig) {
  co_await rig->pd_a->register_buffer(*rig->c_post, rig->client_ring);
  co_await rig->pd_b->register_buffer(*rig->s_post, rig->server_ring);
  co_await rig->store->register_all(*rig->pd_b, *rig->s_post);
  co_await rig->cp->establish(*rig->c_post, *rig->s_post);
  co_await rig->client->start();
  co_await rig->server->start();
  if (!rig->read_cps.empty()) {
    co_await rig->pd_a->register_buffer(*rig->c_post, rig->read_local);
    for (std::size_t w = 0; w < rig->read_cps.size(); ++w)
      co_await rig->read_cps[w]->establish(*rig->read_th[w], *rig->s_post);
  }
  rig->established = true;
}

sim::Task<> kv_ring_establish(KvRig* rig, KvRig* next) {
  co_await rig->pd_a->register_buffer(*rig->ring_c_post,
                                      rig->ring_client_ring);
  co_await next->pd_b->register_buffer(*rig->ring_s_post,
                                       rig->ring_server_ring);
  co_await rig->ring_cp->establish(*rig->ring_c_post, *rig->ring_s_post);
  co_await rig->ring_client->start();
  co_await rig->ring_server->start();
  rig->ring_established = true;
}

sim::Task<> kv_recover(KvRig* rig) {
  co_await rig->cp->reestablish(*rig->c_rec, *rig->s_rec);
}

/// One-sided GET: READ the index entry, then the value, from the shard's
/// registered regions. Retries ride out link-fault completions.
sim::Task<bool> kv_read_get(KvRig* rig, std::uint64_t key, int w) {
  rdma::QueuePair& qp = rig->read_cps[static_cast<std::size_t>(w)]->a();
  numa::Thread& th = *rig->read_th[static_cast<std::size_t>(w)];
  apps::KvStore::Shard& sh = rig->store->shard(rig->store->shard_of(key));
  for (int attempt = 0; attempt < 64; ++attempt) {
    if (attempt > 0) co_await sim::Delay{rig->eng, sim::kMillisecond};
    rdma::SendWr wr;
    wr.op = rdma::Opcode::kRead;
    wr.wr_id = key;
    wr.local = &rig->read_local;
    wr.bytes = apps::KvStore::kIndexEntryBytes;
    wr.remote = rdma::RemoteKey{&sh.index};
    co_await qp.post_send(th, wr);
    auto wc = co_await qp.send_cq().wait(th);
    if (!wc.success) continue;
    wr.bytes = rig->store->value_bytes();
    wr.remote = rdma::RemoteKey{&sh.values};
    co_await qp.post_send(th, wr);
    wc = co_await qp.send_cq().wait(th);
    if (wc.success) co_return true;
  }
  co_return false;
}

sim::Task<bool> kv_rpc_op(rpc::RpcClient* cl, bool put, std::uint64_t key,
                          std::uint64_t value_bytes,
                          std::uint64_t header_bytes) {
  apps::KvMsg m;
  m.op = put ? apps::KvMsg::Op::kPut : apps::KvMsg::Op::kGet;
  m.key = key;
  m.value_bytes = put ? value_bytes : 0;
  const std::uint64_t req_bytes = header_bytes + (put ? value_bytes : 0);
  auto rep = co_await cl->call(req_bytes, mem::make_msg<apps::KvMsg>(m));
  co_return rep.ok;
}

sim::Task<> kv_worker(KvRig* rig, const KvParams* p, int w,
                      std::uint64_t header_bytes) {
  while (rig->next_op < p->ops_per_pair) {
    const std::uint64_t op = rig->next_op++;
    const std::uint64_t key = rig->zipf->sample(*rig->rng);
    const bool put = rig->rng->chance(p->put_frac);
    const bool remote =
        rig->ring_client != nullptr && p->remote_every > 0 &&
        op % static_cast<std::uint64_t>(p->remote_every) == 0;
    const sim::SimTime t0 = rig->eng.now();
    bool ok;
    if (!put && p->get_via_read && !remote) {
      ok = co_await kv_read_get(rig, key, w);
    } else {
      rpc::RpcClient* cl = remote ? rig->ring_client.get() : rig->client.get();
      ok = co_await kv_rpc_op(cl, put, key, p->value_bytes, header_bytes);
    }
    const sim::SimTime now = rig->eng.now();
    (put ? rig->put_lat : rig->get_lat)
        .record(static_cast<std::uint64_t>(now - t0));
    rig->last_done = std::max(rig->last_done, now);
    ++rig->ops_done;
    if (put)
      ++rig->puts;
    else
      ++rig->gets;
    if (remote) ++rig->remote_ops;
    if (!ok) ++rig->failed;
  }
  --rig->workers_live;
}

}  // namespace

KvResult run_kv(const KvParams& p) {
  if (p.depth < 1) throw std::invalid_argument("kv: depth must be >= 1");
  if (p.ops_per_pair < 1)
    throw std::invalid_argument("kv: ops must be >= 1");
  if (p.put_frac < 0.0 || p.put_frac > 1.0)
    throw std::invalid_argument("kv: put_frac must be in [0, 1]");
  if (p.remote_every < 0)
    throw std::invalid_argument("kv: remote_every must be >= 0");

  const rpc::RpcConfig cfg = [&] {
    rpc::RpcConfig c;
    c.window = static_cast<std::size_t>(p.depth);
    c.recv_ring = std::max<std::size_t>(64, 2 * c.window);
    return c;
  }();
  const std::uint64_t max_msg = cfg.header_bytes + p.value_bytes;

  ClusterHarness h({.scenario = "kv", .pairs = p.pairs, .shards = p.shards,
                    .audit = p.audit, .stats = p.stats, .tag = "kv",
                    .host_a = "-c", .host_b = "-s", .proc_a = "-cli",
                    .proc_b = "-srv", .link = "-rack", .ring = "kvring",
                    .make_link = net::make_roce_rack,
                    .make_ring_link = net::make_roce_rack},
                   [] { return std::make_unique<KvRig>(); });
  const int P = h.pairs();
  auto rig = [&h](int i) -> KvRig& { return h.shard<KvRig>(i); };

  for (int i = 0; i < P; ++i) {
    KvRig& r = rig(i);
    r.pd_a = std::make_unique<rdma::ProtectionDomain>(*r.a);
    r.pd_b = std::make_unique<rdma::ProtectionDomain>(*r.b);

    r.c_post = &r.pa->spawn_thread(r.da->node());
    r.c_reap = &r.pa->spawn_thread(r.da->node());
    r.s_post = &r.pb->spawn_thread(r.db->node());
    r.s_reap = &r.pb->spawn_thread(r.db->node());
    r.c_rec = &r.pa->spawn_thread(r.da->node());
    r.s_rec = &r.pb->spawn_thread(r.db->node());

    r.client_ring.bytes = max_msg;
    r.client_ring.placement = r.pa->alloc(max_msg, r.da->node());
    r.server_ring.bytes = max_msg;
    r.server_ring.placement = r.pb->alloc(max_msg, r.db->node());

    r.store = std::make_unique<apps::KvStore>(*r.pb, p.keys, p.value_bytes,
                                              p.store_shards);
    r.handler = std::make_unique<apps::KvHandler>(*r.store, r.server_ring,
                                                  cfg.header_bytes);
    r.cp = std::make_unique<rdma::ConnectedPair>(*r.da, *r.db, *r.link);
    r.client = std::make_unique<rpc::RpcClient>(r.cp->a(), *r.c_post,
                                                *r.c_reap, r.client_ring, cfg);
    r.server = std::make_unique<rpc::RpcServer>(
        r.cp->b(), *r.s_post, *r.s_reap, r.server_ring, *r.handler, cfg);

    if (p.get_via_read) {
      r.read_local.bytes = std::max<std::uint64_t>(
          p.value_bytes, apps::KvStore::kIndexEntryBytes);
      r.read_local.placement =
          r.pa->alloc(r.read_local.bytes, r.da->node());
      for (int w = 0; w < p.depth; ++w) {
        r.read_th.push_back(&r.pa->spawn_thread(r.da->node()));
        r.read_cps.push_back(
            std::make_unique<rdma::ConnectedPair>(*r.da, *r.db, *r.link));
      }
    }

    r.rng = std::make_unique<sim::Rng>(
        p.seed + 0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(i + 1));
    r.zipf = std::make_unique<apps::Zipf>(p.keys, p.zipf_theta);

    // The kill handler drops the rpc plane into its error epoch; client
    // retry timers carry the calls across the outage while one recovery
    // coroutine re-establishes.
    fault::FaultPlan::RandomParams rp;
    rp.links = 1;
    rp.qps = 1;
    rp.qp_kills = 2;
    h.arm_chaos(i, p.fault_seed, rp, [&r](int) {
      r.cp->kill();
      sim::co_spawn(kv_recover(&r));
    });
  }

  // Cross-shard rpc ring: pair i's client calls into pair (i+1)%P's
  // server. Needs at least two pairs to form a seam.
  const bool ring_on = P > 1 && p.remote_every > 0;
  if (ring_on) {
    h.wire_ring([&](int i, int n) {
      KvRig& r = rig(i);
      KvRig& next = rig(n);
      r.ring_c_post = &r.pa->spawn_thread(r.da->node());
      r.ring_c_reap = &r.pa->spawn_thread(r.da->node());
      r.ring_s_post = &next.pb->spawn_thread(next.db->node());
      r.ring_s_reap = &next.pb->spawn_thread(next.db->node());
      r.ring_client_ring.bytes = max_msg;
      r.ring_client_ring.placement = r.pa->alloc(max_msg, r.da->node());
      r.ring_server_ring.bytes = max_msg;
      r.ring_server_ring.placement =
          next.pb->alloc(max_msg, next.db->node());
      r.ring_client = std::make_unique<rpc::RpcClient>(
          r.ring_cp->a(), *r.ring_c_post, *r.ring_c_reap, r.ring_client_ring,
          cfg);
      r.ring_server = std::make_unique<rpc::RpcServer>(
          r.ring_cp->b(), *r.ring_s_post, *r.ring_s_reap, r.ring_server_ring,
          *next.handler, cfg);
    });
  }

  // Registration + establishment (ring handshakes and ring-server ring
  // posts hop between shards).
  for (int i = 0; i < P; ++i) sim::co_spawn(kv_establish(&rig(i)));
  if (ring_on)
    for (int i = 0; i < P; ++i)
      sim::co_spawn(kv_ring_establish(&rig(i), &rig((i + 1) % P)));
  h.run_sequential([&](int i) {
    return rig(i).established && (!ring_on || rig(i).ring_established);
  });

  // The parallel closed loop. Spawn order is pair order.
  const std::uint64_t header_bytes = cfg.header_bytes;
  for (int i = 0; i < P; ++i) {
    KvRig& r = rig(i);
    r.t_start = r.eng.now();
    r.workers_live = p.depth;
    for (int w = 0; w < p.depth; ++w)
      sim::co_spawn(kv_worker(&r, &p, w, header_bytes));
  }
  KvResult out;
  h.run(out);

  stats::Histogram get_lat, put_lat;
  for (int i = 0; i < P; ++i) {
    const KvRig& r = rig(i);
    out.complete = out.complete && r.workers_live == 0 &&
                   r.ops_done == p.ops_per_pair;
    if (p.fault_seed == 0) out.complete = out.complete && r.failed == 0;
    out.ops_done += r.ops_done;
    out.gets += r.gets;
    out.puts += r.puts;
    out.remote_ops += r.remote_ops;
    out.failed_ops += r.failed;
    out.rpc_retries += r.client->retries();
    out.stale_responses += r.client->stale_responses();
    out.calls_served += r.handler->gets() + r.handler->puts();
    out.doorbells += r.client->doorbells() + r.server->doorbells();
    out.doorbell_wrs += r.client->doorbell_wrs() + r.server->doorbell_wrs();
    out.poll_batches += r.client->poll_batches() + r.server->poll_batches();
    out.poll_cqes += r.client->poll_cqes() + r.server->poll_cqes();
    if (r.ring_client) {
      out.rpc_retries += r.ring_client->retries();
      out.stale_responses += r.ring_client->stale_responses();
      out.doorbells += r.ring_client->doorbells() + r.ring_server->doorbells();
      out.doorbell_wrs +=
          r.ring_client->doorbell_wrs() + r.ring_server->doorbell_wrs();
      out.poll_batches +=
          r.ring_client->poll_batches() + r.ring_server->poll_batches();
      out.poll_cqes += r.ring_client->poll_cqes() + r.ring_server->poll_cqes();
    }
    get_lat.merge(r.get_lat);
    put_lat.merge(r.put_lat);
    const sim::SimTime span = r.last_done - r.t_start;
    const double mops =
        span > 0 ? static_cast<double>(r.ops_done) * 1e3 /
                       static_cast<double>(span)
                 : 0.0;
    out.pair_mops.push_back(mops);
    out.aggregate_mops += mops;
  }
  if (out.gets > 0) {
    out.get_p50_ns = get_lat.p50();
    out.get_p99_ns = get_lat.p99();
    out.get_p999_ns = get_lat.p999();
  }
  if (out.puts > 0) {
    out.put_p50_ns = put_lat.p50();
    out.put_p99_ns = put_lat.p99();
    out.put_p999_ns = put_lat.p999();
  }


  std::ostringstream head, tail;
  head << "kv-v1 pairs=" << P << " keys=" << p.keys
       << " ops=" << p.ops_per_pair << " value=" << p.value_bytes
       << " depth=" << p.depth
       << " mode=" << (p.get_via_read ? "read" : "rpc")
       << " store_shards=" << p.store_shards << " seed=" << p.seed
       << " fseed=" << p.fault_seed << " complete=" << out.complete
       << " audit_viol=" << out.audit_violations << " gets=" << out.gets
       << " puts=" << out.puts << " remote=" << out.remote_ops
       << " failed=" << out.failed_ops << " retries=" << out.rpc_retries
       << " stale=" << out.stale_responses << " served=" << out.calls_served
       << " doorbells=" << out.doorbells << "/" << out.doorbell_wrs
       << " polls=" << out.poll_batches << "/" << out.poll_cqes;
  tail << " get_ns=[" << out.get_p50_ns << "," << out.get_p99_ns << ","
       << out.get_p999_ns << "] put_ns=[" << out.put_p50_ns << ","
       << out.put_p99_ns << "," << out.put_p999_ns << "]";
  out.digest = h.digest(head.str(), out, "mops", out.pair_mops, tail.str());
  return out;
}

}  // namespace e2e::exp
