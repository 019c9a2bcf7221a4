#include "exp/san_section.hpp"

#include <stdexcept>

namespace e2e::exp {

SanSection::SanSection(sim::Engine& eng, numa::Host& fe_host,
                       std::vector<rdma::Device*> fe_ib, std::string name,
                       SanConfig cfg)
    : eng_(eng), fe_host_(fe_host), fe_ib_(std::move(fe_ib)), cfg_(cfg) {
  if (fe_ib_.size() != 2)
    throw std::invalid_argument("SAN section expects two front-end IB ports");

  target_host_ = std::make_unique<numa::Host>(
      eng, model::back_end_lan_host(name + "-target"));
  for (const auto& nic : target_host_->profile().nics)
    tgt_ib_.push_back(std::make_unique<rdma::Device>(*target_host_, nic));

  for (int i = 0; i < 2; ++i) {
    links_.push_back(net::make_ib_lan(eng, name + "-ib" + std::to_string(i)));
    links_.back()->bind_endpoints(&fe_host_, target_host_.get());
  }

  tmpfs_ = std::make_unique<mem::Tmpfs>(*target_host_);
  // With either static numactl tuning or the dynamic libnuma scheduler the
  // target allocates LUN pages and staging buffers node-locally; only the
  // fully untuned baseline interleaves.
  const bool bound_memory = cfg_.numa_tuned || cfg_.libnuma_dynamic;

  // LUN backing files: pinned per serving node when tuned (mpol=bind),
  // interleaved otherwise. LUN l is served over link (l % 2) whose target
  // NIC sits on node (l % 2).
  for (int l = 0; l < cfg_.luns; ++l) {
    const int session = l % 2;
    const numa::NodeId node = tgt_ib_[session]->node();
    auto& file = tmpfs_->create(
        "lun" + std::to_string(l), cfg_.lun_bytes,
        bound_memory ? numa::MemPolicy::kBind : numa::MemPolicy::kInterleave,
        node);
    luns_.push_back(
        std::make_unique<scsi::Lun>(static_cast<std::uint32_t>(l), *tmpfs_,
                                    file));
  }

  // Target processes: per-node numactl binding when tuned, one untuned
  // process otherwise.
  if (cfg_.numa_tuned) {
    for (int n = 0; n < target_host_->node_count(); ++n)
      tgt_procs_.push_back(std::make_unique<numa::Process>(
          *target_host_, name + "-tgtd" + std::to_string(n),
          numa::NumaBinding::bound(n)));
  } else {
    tgt_procs_.push_back(std::make_unique<numa::Process>(
        *target_host_, name + "-tgtd", numa::NumaBinding::os_default()));
  }

  init_proc_ = std::make_unique<numa::Process>(
      fe_host_, name + "-initiator",
      cfg_.numa_tuned ? numa::NumaBinding{numa::SchedPolicy::kBindNode,
                                          numa::MemPolicy::kBind,
                                          numa::kAnyNode}
                      : numa::NumaBinding::os_default());

  // One iSER session per link, its Target serving the link's LUNs.
  IscsiRigConfig rig_cfg;
  if (cfg_.libnuma_dynamic) rig_cfg.sched = iscsi::TargetSched::kNumaRouted;
  for (int s = 0; s < 2; ++s) {
    staging_pools_.push_back(std::make_unique<mem::BufferPool>(
        *target_host_, name + "-staging" + std::to_string(s),
        static_cast<std::size_t>(cfg_.staging_buffers_per_target),
        cfg_.staging_bytes,
        bound_memory ? numa::MemPolicy::kBind : numa::MemPolicy::kInterleave,
        tgt_ib_[s]->node()));
    std::vector<scsi::Lun*> subset;
    for (int l = s; l < cfg_.luns; l += 2) subset.push_back(luns_[l].get());
    rigs_.push_back(std::make_unique<IscsiRig>(
        IscsiEnd{init_proc_.get(), fe_ib_[s]},
        IscsiEnd{&target_proc(s), tgt_ib_[s].get()}, *links_[s],
        std::move(subset), *staging_pools_.back(), rig_cfg));
  }

  for (int l = 0; l < cfg_.luns; ++l)
    lun_devices_.push_back(std::make_unique<blk::RemoteBlockDevice>(
        rigs_[static_cast<std::size_t>(l % 2)]->initiator(),
        static_cast<std::uint32_t>(l), cfg_.lun_bytes));

  std::vector<blk::BlockDevice*> members;
  for (auto& d : lun_devices_) members.push_back(d.get());
  striped_ =
      std::make_unique<blk::StripedBlockDevice>(members, 4ull << 20);
}

numa::Process& SanSection::target_proc(int session) {
  return *tgt_procs_[cfg_.numa_tuned ? static_cast<std::size_t>(session) : 0];
}

sim::Task<> SanSection::start() {
  for (int s = 0; s < 2; ++s) {
    numa::Thread& ith = init_proc_->spawn_thread(fe_ib_[s]->node());
    numa::Thread& tth = target_proc(s).spawn_thread(tgt_ib_[s]->node());
    const int workers =
        cfg_.threads_per_lun * (cfg_.luns / 2 + (s == 0 ? cfg_.luns % 2 : 0));
    co_await rigs_[static_cast<std::size_t>(s)]->start(ith, tth, workers);
  }
}

}  // namespace e2e::exp
