// One iSCSI session between an initiator process and a target process:
// the datamover session (iSER or iSCSI/TCP), the Target serving the
// caller's LUNs through the caller's staging pool, and the Initiator.
// Every iSCSI bring-up (the SAN section, the SAN ablations, the protocol
// bench and the iSCSI tests) goes through here, so the bring-up order and
// the session's fault wiring live in one place.
#pragma once

#include <memory>
#include <vector>

#include "fault/injector.hpp"
#include "iscsi/initiator.hpp"
#include "iscsi/target.hpp"
#include "iscsi/tcp_datamover.hpp"
#include "iser/session.hpp"
#include "mem/buffer_pool.hpp"
#include "net/link.hpp"
#include "rdma/device.hpp"
#include "scsi/scsi.hpp"

namespace e2e::exp {

/// The datamover under the iSCSI session.
enum class Transport { kIser, kTcp };

/// One end of the session: its process and, over iSER, its RDMA device
/// (ignored over TCP, whose connection sits on the process's bound node).
struct IscsiEnd {
  numa::Process* proc = nullptr;
  rdma::Device* dev = nullptr;
};

struct IscsiRigConfig {
  Transport transport = Transport::kIser;
  iscsi::TargetSched sched = iscsi::TargetSched::kShared;
  /// Initiator response timeout before a command is retransmitted
  /// (0 = never retransmit); `policy` bounds the retransmissions.
  sim::SimDuration command_timeout = 0;
  iscsi::RetryPolicy policy;
};

class IscsiRig {
 public:
  /// Builds the session over `link`, then the Target over `luns` and
  /// `staging` (registered with the adapter over iSER), then the
  /// Initiator. Nothing runs until start().
  IscsiRig(IscsiEnd init, IscsiEnd tgt, net::Link& link,
           std::vector<scsi::Lun*> luns, mem::BufferPool& staging,
           const IscsiRigConfig& cfg = {});
  IscsiRig(const IscsiRig&) = delete;
  IscsiRig& operator=(const IscsiRig&) = delete;

  /// The one bring-up order: the datamover session on the caller's
  /// service threads, then `workers` target workers, then login, then the
  /// initiator's dispatcher on `init_th`. TCP also takes each side's
  /// transmit thread. Throws when the login is refused.
  sim::Task<> start(numa::Thread& init_th, numa::Thread& tgt_th, int workers,
                    numa::Thread* init_tx = nullptr,
                    numa::Thread* tgt_tx = nullptr);

  /// start() driven from outside the engine: runs the engine dry once the
  /// session is up and again after login, so anything else queued (a
  /// sampler tick, a late completion) runs between the phases.
  void run_start(numa::Thread& init_th, numa::Thread& tgt_th, int workers,
                 numa::Thread* init_tx = nullptr,
                 numa::Thread* tgt_tx = nullptr);

  /// Wires a fault plan to this session: attaches `inj` to the link and,
  /// over iSER, routes its qp kills to kill() and its crashes to
  /// crash(down). Over TCP there is no QP to kill, so the injector counts
  /// qp kills and crashes as skipped. Call once; the caller arms the
  /// injector, and the rig must outlive the injector's armed events.
  void attach(fault::FaultInjector& inj);

  [[nodiscard]] iscsi::Target& target() noexcept { return target_; }
  [[nodiscard]] iscsi::Initiator& initiator() noexcept { return initiator_; }
  /// The iSER session (null over TCP).
  [[nodiscard]] iser::IserSession* iser() noexcept { return iser_.get(); }
  /// The iSCSI/TCP session (null over iSER).
  [[nodiscard]] iscsi::TcpSession* tcp() noexcept { return tcp_.get(); }

 private:
  sim::Task<> connect(numa::Thread& init_th, numa::Thread& tgt_th,
                      numa::Thread* init_tx, numa::Thread* tgt_tx);
  sim::Task<> login(numa::Thread& init_th, int workers);

  net::Link& link_;
  std::unique_ptr<iser::IserSession> iser_;
  std::unique_ptr<iscsi::TcpSession> tcp_;
  iscsi::Target target_;
  iscsi::Initiator initiator_;
};

}  // namespace e2e::exp
