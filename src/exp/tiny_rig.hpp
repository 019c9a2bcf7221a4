// The smallest testbed: two 2-node hosts joined by one 40G RoCE link, with
// round numbers so expectations can be computed by hand, and an iSCSI
// session across it. The unit tests and the protocol microbenchmarks
// build on it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exp/iscsi_rig.hpp"
#include "mem/tmpfs.hpp"
#include "model/host_profile.hpp"
#include "net/link.hpp"
#include "numa/numa.hpp"
#include "rdma/rdma.hpp"
#include "sim/sim.hpp"

namespace e2e::exp {

/// Small 2-node/2-cores-per-node host profile with round numbers so
/// expected service times can be computed by hand:
///   cores: 2 GHz; memory: 10 GB/s per node; QPI: 5 GB/s per direction.
inline model::HostProfile tiny_host(const std::string& name) {
  model::HostProfile h;
  h.name = name;
  h.numa_nodes = 2;
  h.cores_per_node = 2;
  h.core_ghz = 2.0;
  h.mem_gbytes = 16;
  h.mem_gBps_per_node = 10.0;
  h.interconnect_gBps = 5.0;
  h.nics = {{"nic0", model::LinkType::kRoCE, 40.0, 9000, 0, 63.0},
            {"nic1", model::LinkType::kRoCE, 40.0, 9000, 1, 63.0}};
  return h;
}

/// Two tiny hosts joined by one 40G link, with one RDMA device each.
struct TinyRig {
  sim::Engine eng;
  std::unique_ptr<numa::Host> a;
  std::unique_ptr<numa::Host> b;
  std::unique_ptr<rdma::Device> dev_a;
  std::unique_ptr<rdma::Device> dev_b;
  std::unique_ptr<net::Link> link;
  std::unique_ptr<numa::Process> proc_a;
  std::unique_ptr<numa::Process> proc_b;

  TinyRig() {
    a = std::make_unique<numa::Host>(eng, tiny_host("a"));
    b = std::make_unique<numa::Host>(eng, tiny_host("b"));
    dev_a = std::make_unique<rdma::Device>(*a, a->profile().nics[0]);
    dev_b = std::make_unique<rdma::Device>(*b, b->profile().nics[0]);
    link = net::make_roce_lan(eng, "t");
    proc_a = std::make_unique<numa::Process>(*a, "pa",
                                             numa::NumaBinding::bound(0));
    proc_b = std::make_unique<numa::Process>(*b, "pb",
                                             numa::NumaBinding::bound(0));
  }
};

/// Makes a registered buffer descriptor on `host` at `node`.
inline mem::Buffer make_buffer(numa::Host& host, std::uint64_t bytes,
                               numa::NodeId node) {
  mem::Buffer buf;
  buf.bytes = bytes;
  buf.placement = host.alloc(bytes, numa::MemPolicy::kBind, node, node);
  buf.registered = true;
  return buf;
}

/// An iSCSI session across a TinyRig, a initiating and b serving: LUNs
/// 0..n-1 of `lun_bytes` each on b's tmpfs (node 0), a 4 x 1 MiB staging
/// pool, the rig and its two service threads. Bring it up with
/// `iscsi.run_start(*ith, *tth, workers)`; TCP also needs a transmit
/// thread per side.
struct TinyIscsi {
  mem::Tmpfs fs;
  std::vector<std::unique_ptr<scsi::Lun>> luns;
  mem::BufferPool staging;
  exp::IscsiRig iscsi;
  numa::Thread* ith;
  numa::Thread* tth;

  TinyIscsi(TinyRig& rig, int n_luns, std::uint64_t lun_bytes,
            const exp::IscsiRigConfig& cfg = {})
      : fs(*rig.b),
        luns(make_luns(fs, n_luns, lun_bytes)),
        staging(*rig.b, "staging", 4, 1 << 20, numa::MemPolicy::kBind, 0),
        iscsi({rig.proc_a.get(), rig.dev_a.get()},
              {rig.proc_b.get(), rig.dev_b.get()}, *rig.link, lun_ptrs(),
              staging, cfg),
        ith(&rig.proc_a->spawn_thread()),
        tth(&rig.proc_b->spawn_thread()) {}

 private:
  static std::vector<std::unique_ptr<scsi::Lun>> make_luns(
      mem::Tmpfs& fs, int n, std::uint64_t bytes) {
    std::vector<std::unique_ptr<scsi::Lun>> out;
    for (int l = 0; l < n; ++l)
      out.push_back(std::make_unique<scsi::Lun>(
          l, fs,
          fs.create("lun" + std::to_string(l), bytes,
                    numa::MemPolicy::kBind, 0)));
    return out;
  }
  std::vector<scsi::Lun*> lun_ptrs() const {
    std::vector<scsi::Lun*> out;
    for (const auto& l : luns) out.push_back(l.get());
    return out;
  }
};

}  // namespace e2e::exp
