#include "exp/cluster_harness.hpp"

#include <chrono>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "check/audit.hpp"
#include "fault/injector.hpp"
#include "fault/integrity.hpp"
#include "model/host_profile.hpp"
#include "numa/host.hpp"
#include "numa/process.hpp"
#include "rdma/cm.hpp"
#include "stats/registry.hpp"
#include "trace/tracer.hpp"

namespace e2e::exp {

ClusterShard::ClusterShard() = default;
ClusterShard::~ClusterShard() = default;

ClusterHarness::ClusterHarness(
    const ClusterSpec& spec,
    const std::function<std::unique_ptr<ClusterShard>()>& make_shard)
    : spec_(spec), cluster_(spec.shards) {
  const std::string name = spec.scenario;
  if (spec.pairs < 1)
    throw std::invalid_argument(name + ": pairs must be >= 1");
  if (spec.shards < 1 || spec.shards > spec.pairs)
    throw std::invalid_argument(name + ": shards must be in [1, pairs]");

  shards_.reserve(static_cast<std::size_t>(spec.pairs));
  for (int i = 0; i < spec.pairs; ++i) {
    shards_.push_back(make_shard());
    ClusterShard& s = *shards_.back();
    cluster_.add(s.eng);
    if (spec.stats) {
      s.stats = std::make_unique<stats::Registry>(s.eng);
      s.stats->install();
    }
    if (spec.trace) {
      s.tracer = std::make_unique<trace::Tracer>(s.eng);
      s.tracer->install();
    }
    if (spec.audit) s.audit = std::make_unique<check::Auditor>(s.eng);

    const std::string tag = spec.tag + std::to_string(i);
    s.a = std::make_unique<numa::Host>(
        s.eng, model::front_end_lan_host(tag + spec.host_a));
    s.b = std::make_unique<numa::Host>(
        s.eng, model::front_end_lan_host(tag + spec.host_b));
    s.da = std::make_unique<rdma::Device>(*s.a, s.a->profile().nics[0]);
    s.db = std::make_unique<rdma::Device>(*s.b, s.b->profile().nics[0]);
    s.link = spec.make_link(s.eng, tag + spec.link);
    s.link->bind_endpoints(s.a.get(), s.b.get());
    s.pa = std::make_unique<numa::Process>(
        *s.a, tag + spec.proc_a, numa::NumaBinding::bound(s.da->node()));
    s.pb = std::make_unique<numa::Process>(
        *s.b, tag + spec.proc_b, numa::NumaBinding::bound(s.db->node()));
  }
}

ClusterHarness::~ClusterHarness() {
  for (auto& s : shards_) s->release_ring();
  for (auto& s : shards_) {
    s->ring_cp.reset();
    s->ring_link.reset();
  }
}

void ClusterHarness::arm_chaos(
    int i, std::uint64_t fault_seed, const fault::FaultPlan::RandomParams& rp,
    std::function<void(int)> on_qp_kill,
    std::function<void(int, sim::SimDuration)> on_crash) {
  if (fault_seed == 0) return;
  ClusterShard& s = shard<ClusterShard>(i);
  auto plan = fault::FaultPlan::random(
      fault_seed + 1000003ull * static_cast<std::uint64_t>(i), rp);
  s.inj = std::make_unique<fault::FaultInjector>(s.eng, std::move(plan));
  s.inj->attach(*s.link);
  s.inj->set_qp_kill_handler(std::move(on_qp_kill));
  s.inj->set_crash_handler(std::move(on_crash));
  s.inj->arm();
}

void ClusterHarness::wire_ring(const std::function<void(int, int)>& endpoints) {
  const int P = pairs();
  for (int i = 0; i < P; ++i) {
    ClusterShard& s = shard<ClusterShard>(i);
    ClusterShard& next = shard<ClusterShard>((i + 1) % P);
    s.ring_link =
        spec_.make_ring_link(s.eng, next.eng, spec_.ring + std::to_string(i));
    s.ring_link->bind_endpoints(s.a.get(), next.b.get());
    s.ring_cp =
        std::make_unique<rdma::ConnectedPair>(*s.da, *next.db, *s.ring_link);
    endpoints(i, (i + 1) % P);
  }
}

void ClusterHarness::run_sequential(
    const std::function<bool(int)>& established) {
  cluster_.run_sequential();
  for (int i = 0; i < pairs(); ++i)
    if (!established(i))
      throw std::runtime_error(std::string(spec_.scenario) +
                               ": establish did not complete");
}

void ClusterHarness::run(ClusterResult& out) {
  const std::uint64_t events0 = cluster_.events_processed();
  const auto t0 = std::chrono::steady_clock::now();
  cluster_.run();
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  out.sim_events = cluster_.events_processed() - events0;
  out.windows = cluster_.windows();
  out.cross_posts = cluster_.cross_posts();

  if (spec_.audit) {
    std::vector<check::Auditor*> audits;
    for (const auto& s : shards_) audits.push_back(s->audit.get());
    check::Auditor::merge_qp_ledgers(audits);
    for (const auto& s : shards_) {
      s->audit->finalize();
      out.audit_ok = out.audit_ok && s->audit->ok();
      out.audit_violations += s->audit->violations().size();
    }
  }
  if (spec_.stats) {
    std::vector<const stats::Registry*> regs;
    for (const auto& s : shards_) regs.push_back(s->stats.get());
    std::ostringstream os;
    stats::Registry::write_merged_json(os, regs);
    out.stats_json = os.str();
  }
  if (spec_.trace) {
    std::vector<const trace::Tracer*> trs;
    for (const auto& s : shards_) trs.push_back(s->tracer.get());
    std::ostringstream os;
    trace::write_merged_chrome_trace(os, trs);
    out.trace_json = os.str();
  }
}

std::string ClusterHarness::digest(std::string_view head,
                                   const ClusterResult& out,
                                   std::string_view label,
                                   const std::vector<double>& per_pair,
                                   std::string_view tail) const {
  std::ostringstream dg;
  dg << head << " events=" << out.sim_events << " windows=" << out.windows
     << " cross=" << out.cross_posts << " t=[";
  for (std::size_t i = 0; i < shards_.size(); ++i)
    dg << (i ? "," : "") << shards_[i]->eng.now();
  dg << "] " << label << "=[";
  for (std::size_t i = 0; i < per_pair.size(); ++i) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.9g", per_pair[i]);
    dg << (i ? "," : "") << buf;
  }
  dg << "]" << tail;
  if (spec_.stats) dg << " stats_fnv=" << fault::fnv1a(out.stats_json);
  if (spec_.trace) dg << " trace_fnv=" << fault::fnv1a(out.trace_json);
  return dg.str();
}

}  // namespace e2e::exp
