// The SAN ablations' testbed: a front-end initiator and a back-end target
// joined by one 56G IB link, one 4 GiB LUN on the target, and kJobs
// closed-loop jobs of 4 MiB commands over an iSER or iSCSI/TCP session.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "exp/iscsi_rig.hpp"
#include "mem/tmpfs.hpp"
#include "model/host_profile.hpp"
#include "numa/numa.hpp"

namespace e2e::bench {

struct SanLinkBench {
  static constexpr std::uint64_t kIoBytes = 4ull << 20;
  static constexpr int kJobs = 8;
  static constexpr std::uint64_t kLunBytes = 4ull << 30;

  numa::Host fe;
  numa::Host be;
  std::unique_ptr<net::Link> link;
  numa::Process iproc;
  numa::Process tproc;
  mem::Tmpfs store;
  scsi::Lun lun;
  mem::BufferPool staging;
  numa::Thread& irx;
  numa::Thread& itx;
  numa::Thread& trx;
  numa::Thread& ttx;
  std::unique_ptr<rdma::Device> fe_dev;  // iSER only
  std::unique_ptr<rdma::Device> be_dev;
  exp::IscsiRig iscsi;
  std::array<mem::Buffer, kJobs> bufs{};  // one I/O buffer per job
  std::uint64_t bytes = 0;  // completed by the jobs' deadline

  /// Builds the testbed and brings the session up with 8 target workers.
  SanLinkBench(sim::Engine& eng, const exp::IscsiRigConfig& cfg)
      : fe(eng, model::front_end_lan_host("fe")),
        be(eng, model::back_end_lan_host("be")),
        link(bound_link(eng, fe, be)),
        iproc(fe, "initiator", numa::NumaBinding::bound(0)),
        tproc(be, "tgtd", numa::NumaBinding::bound(0)),
        store(be),
        lun(0, store,
            store.create("lun0", kLunBytes, numa::MemPolicy::kBind, 0)),
        staging(be, "staging", 32, 8ull << 20, numa::MemPolicy::kBind, 0),
        irx(iproc.spawn_thread()),
        itx(iproc.spawn_thread()),
        trx(tproc.spawn_thread()),
        ttx(tproc.spawn_thread()),
        fe_dev(cfg.transport == exp::Transport::kIser
                   ? std::make_unique<rdma::Device>(
                         fe, model::NicProfile{"ib0",
                                               model::LinkType::kInfiniBand,
                                               56.0, 65520, 0, 63.0})
                   : nullptr),
        be_dev(cfg.transport == exp::Transport::kIser
                   ? std::make_unique<rdma::Device>(be, be.profile().nics[0])
                   : nullptr),
        iscsi({&iproc, fe_dev.get()}, {&tproc, be_dev.get()}, *link, {&lun},
              staging, cfg) {
    iscsi.run_start(irx, trx, 8, &itx, &ttx);
  }

  /// Spawns kJobs jobs, each on its own initiator thread and 1/kJobs of
  /// the LUN, issuing 4 MiB commands back to back until `deadline`; the
  /// bytes of those done by then add to `bytes`.
  void start_jobs(bool write, sim::SimTime deadline) {
    for (int j = 0; j < kJobs; ++j) {
      mem::Buffer& buf = bufs[static_cast<std::size_t>(j)];
      buf.bytes = kIoBytes;
      buf.placement = iproc.alloc(kIoBytes);
      buf.registered = true;
      sim::co_spawn(io_job(iscsi.initiator(), iproc.spawn_thread(), &buf,
                           write, j * (kLunBytes / kJobs), deadline, &bytes));
    }
  }

 private:
  static std::unique_ptr<net::Link> bound_link(sim::Engine& eng,
                                               numa::Host& a, numa::Host& b) {
    auto l = net::make_ib_lan(eng, "ib");
    l->bind_endpoints(&a, &b);
    return l;
  }

  static sim::Task<> io_job(iscsi::Initiator& init, numa::Thread& th,
                            mem::Buffer* buf, bool write,
                            std::uint64_t region_off, sim::SimTime deadline,
                            std::uint64_t* bytes) {
    auto& eng = th.host().engine();
    std::uint64_t off = region_off;
    const auto blocks = static_cast<std::uint32_t>(kIoBytes / 512);
    while (eng.now() < deadline) {
      const auto s =
          write ? co_await init.submit_write(th, 0, off / 512, blocks, *buf)
                : co_await init.submit_read(th, 0, off / 512, blocks, *buf);
      if (s != scsi::Status::kGood) co_return;  // terminal: job gives up
      if (eng.now() <= deadline) *bytes += kIoBytes;
      off += kIoBytes;
      if (off + kIoBytes > region_off + kLunBytes / kJobs) off = region_off;
    }
  }
};

}  // namespace e2e::bench
