// Fleet scenario implementation on exp::ClusterHarness, which owns the
// shards, phases, merge and teardown (see cluster_harness.hpp). This file
// adds one RFTP session per pair and the ring of background RDMA Writes.
#include "exp/fleet.hpp"

#include <memory>
#include <sstream>
#include <stdexcept>

#include "exp/cluster_harness.hpp"
#include "net/link.hpp"
#include "numa/host.hpp"
#include "numa/process.hpp"
#include "rdma/cm.hpp"
#include "rftp/rftp.hpp"

namespace e2e::exp {

namespace {

/// One fleet pair: its RFTP transfer, plus the requester side of the
/// cross-shard background flow (this pair's sender host writes into the
/// next pair's receiver host over the harness's ring connection).
struct PairRig : ClusterShard {
  std::unique_ptr<rftp::RftpSession> sess;
  std::unique_ptr<rftp::MemorySource> src;
  std::unique_ptr<rftp::MemorySink> sink;
  rftp::TransferResult res{};
  bool done = false;

  numa::Thread* post_th = nullptr;
  numa::Thread* reap_th = nullptr;
  mem::Buffer ring_local{};
  mem::Buffer ring_remote{};  // storage in the next pair's receiver process
  std::unique_ptr<sim::Semaphore> window;
  std::uint64_t ring_completed = 0;
  bool ring_established = false;
};

sim::Task<> fleet_establish(PairRig* rig, numa::Thread* tb) {
  co_await rig->ring_cp->establish(*rig->post_th, *tb);
  rig->ring_established = true;
}

sim::Task<> fleet_ring_poster(PairRig* rig, const FleetParams* p) {
  for (std::uint64_t i = 0; i < p->ring_messages; ++i) {
    co_await rig->window->acquire();
    rdma::SendWr wr;
    wr.wr_id = i;
    wr.op = rdma::Opcode::kWrite;
    wr.local = &rig->ring_local;
    wr.remote = rdma::RemoteKey{&rig->ring_remote};
    wr.bytes = p->ring_msg_bytes;
    co_await rig->ring_cp->a().post_send(*rig->post_th, wr);
  }
}

sim::Task<> fleet_ring_reaper(PairRig* rig, const FleetParams* p) {
  for (std::uint64_t i = 0; i < p->ring_messages; ++i) {
    auto wc = co_await rig->ring_cp->a().send_cq().wait(*rig->reap_th);
    if (!wc.success)
      throw std::runtime_error("fleet: ring write completion failed");
    ++rig->ring_completed;
    rig->window->release();
  }
}

sim::Task<> fleet_transfer(PairRig* rig, std::uint64_t bytes) {
  rig->res = co_await rig->sess->run(*rig->src, *rig->sink, bytes);
  rig->done = true;
}

}  // namespace

FleetResult run_fleet(const FleetParams& p) {
  ClusterHarness h({.scenario = "fleet", .pairs = p.pairs, .shards = p.shards,
                    .audit = p.audit, .stats = p.stats, .trace = p.trace,
                    .tag = "p", .host_a = "-a", .host_b = "-b",
                    .proc_a = "-send", .proc_b = "-recv", .link = "-lan",
                    .ring = "ring", .make_link = net::make_roce_lan,
                    .make_ring_link = net::make_roce_lan},
                   [] { return std::make_unique<PairRig>(); });
  const int P = h.pairs();
  auto rig = [&h](int i) -> PairRig& { return h.shard<PairRig>(i); };

  for (int i = 0; i < P; ++i) {
    PairRig& r = rig(i);
    rftp::RftpConfig cfg;
    cfg.block_bytes = p.block_bytes;
    cfg.streams = p.streams;
    cfg.credits_per_stream = p.credits;
    cfg.checkpoint_blocks = p.checkpoint_blocks;
    cfg.fast_forward = p.fast_forward;  // inert under a Cluster (see hpp)
    r.sess = std::make_unique<rftp::RftpSession>(
        rftp::EndpointConfig{r.pa.get(), {r.da.get()}},
        rftp::EndpointConfig{r.pb.get(), {r.db.get()}},
        std::vector<net::Link*>{r.link.get()}, cfg);
    r.src = std::make_unique<rftp::MemorySource>(p.bytes_per_pair,
                                                 numa::Placement::on(0));
    r.sink = std::make_unique<rftp::MemorySink>();

    fault::FaultPlan::RandomParams rp;
    rp.links = 1;
    rp.qps = p.streams;
    rp.hosts = 2;
    rp.crashes = 1;
    const int streams = p.streams;
    h.arm_chaos(
        i, p.fault_seed, rp,
        [&r, streams](int qp) { r.sess->kill_stream(qp % streams); },
        [&r](int host, sim::SimDuration d) { r.sess->crash_host(host, d); });
  }

  // The ring needs at least two pairs to form a seam.
  const bool ring_on = P > 1 && p.ring_messages > 0;
  if (ring_on) {
    h.wire_ring([&](int i, int n) {
      PairRig& r = rig(i);
      PairRig& next = rig(n);
      r.post_th = &r.pa->spawn_thread(r.da->node());
      r.reap_th = &r.pa->spawn_thread(r.da->node());
      r.ring_local.placement = r.pa->alloc(p.ring_msg_bytes, r.da->node());
      r.ring_remote.placement =
          next.pb->alloc(p.ring_msg_bytes, next.db->node());
      r.ring_local.registered = r.ring_remote.registered = true;
      r.window = std::make_unique<sim::Semaphore>(r.eng, 4);
    });
    for (int i = 0; i < P; ++i) {
      PairRig& next = rig((i + 1) % P);
      numa::Thread& tb = next.pb->spawn_thread(next.db->node());
      sim::co_spawn(fleet_establish(&rig(i), &tb));
    }
    h.run_sequential([&](int i) { return rig(i).ring_established; });
  }

  // The parallel run. Spawn order is pair order (deterministic).
  for (int i = 0; i < P; ++i) {
    PairRig& r = rig(i);
    sim::co_spawn(fleet_transfer(&r, p.bytes_per_pair));
    if (ring_on) {
      sim::co_spawn(fleet_ring_poster(&r, &p));
      sim::co_spawn(fleet_ring_reaper(&r, &p));
    }
  }
  FleetResult out;
  h.run(out);

  for (int i = 0; i < P; ++i) {
    const PairRig& r = rig(i);
    out.complete = out.complete && r.done && r.res.complete;
    out.integrity_ok = out.integrity_ok && r.res.integrity_ok;
    out.pair_gbps.push_back(r.res.goodput_gbps);
    out.aggregate_gbps += r.res.goodput_gbps;
    out.ring_completed += r.ring_completed;
  }

  std::ostringstream head;
  head << "fleet-v1 pairs=" << P << " bytes=" << p.bytes_per_pair
       << " seed=" << p.fault_seed << " complete=" << out.complete
       << " integrity=" << out.integrity_ok
       << " audit_viol=" << out.audit_violations
       << " ring=" << out.ring_completed;
  out.digest = h.digest(head.str(), out, "gbps", out.pair_gbps);
  return out;
}

}  // namespace e2e::exp
