#include "exp/iscsi_rig.hpp"

#include <stdexcept>
#include <utility>

#include "exp/runner.hpp"

namespace e2e::exp {

namespace {

std::unique_ptr<iser::IserSession> make_iser(const IscsiEnd& init,
                                             const IscsiEnd& tgt,
                                             net::Link& link) {
  if (init.dev == nullptr || tgt.dev == nullptr)
    throw std::invalid_argument("iSER needs an RDMA device at each end");
  return std::make_unique<iser::IserSession>(*init.dev, *tgt.dev, link,
                                             *init.proc, *tgt.proc);
}

/// Node of the process's NIC over TCP: its bound node (0 when unbound).
numa::NodeId tcp_node(const numa::Process& proc) {
  const numa::NodeId n = proc.binding().node;
  return n == numa::kAnyNode ? 0 : n;
}

std::unique_ptr<iscsi::TcpSession> make_tcp(const IscsiEnd& init,
                                            const IscsiEnd& tgt,
                                            net::Link& link) {
  return std::make_unique<iscsi::TcpSession>(
      init.proc->host(), tcp_node(*init.proc), tgt.proc->host(),
      tcp_node(*tgt.proc), link, *init.proc, *tgt.proc);
}

}  // namespace

IscsiRig::IscsiRig(IscsiEnd init, IscsiEnd tgt, net::Link& link,
                   std::vector<scsi::Lun*> luns, mem::BufferPool& staging,
                   const IscsiRigConfig& cfg)
    : link_(link),
      iser_(cfg.transport == Transport::kIser ? make_iser(init, tgt, link)
                                              : nullptr),
      tcp_(cfg.transport == Transport::kTcp ? make_tcp(init, tgt, link)
                                            : nullptr),
      target_(*tgt.proc,
              iser_ ? static_cast<iscsi::Datamover&>(iser_->target_ep())
                    : tcp_->target_ep(),
              std::move(luns), staging, cfg.sched),
      initiator_(*init.proc,
                 iser_ ? static_cast<iscsi::Datamover&>(iser_->initiator_ep())
                       : tcp_->initiator_ep(),
                 cfg.command_timeout, cfg.policy) {
  if (iser_) staging.mark_registered();
}

sim::Task<> IscsiRig::connect(numa::Thread& init_th, numa::Thread& tgt_th,
                              numa::Thread* init_tx, numa::Thread* tgt_tx) {
  if (iser_) {
    co_await iser_->start(init_th, tgt_th);
    co_return;
  }
  if (init_tx == nullptr || tgt_tx == nullptr)
    throw std::invalid_argument("iSCSI/TCP needs a transmit thread per side");
  co_await tcp_->start(init_th, *init_tx, tgt_th, *tgt_tx);
}

sim::Task<> IscsiRig::login(numa::Thread& init_th, int workers) {
  target_.start(workers);
  const iscsi::LoginParams proposal{};
  if (!co_await initiator_.login(init_th, proposal))
    throw std::runtime_error("iSCSI login failed");
  initiator_.start_dispatcher(init_th);
}

sim::Task<> IscsiRig::start(numa::Thread& init_th, numa::Thread& tgt_th,
                            int workers, numa::Thread* init_tx,
                            numa::Thread* tgt_tx) {
  co_await connect(init_th, tgt_th, init_tx, tgt_tx);
  co_await login(init_th, workers);
}

void IscsiRig::run_start(numa::Thread& init_th, numa::Thread& tgt_th,
                         int workers, numa::Thread* init_tx,
                         numa::Thread* tgt_tx) {
  sim::Engine& eng = init_th.host().engine();
  run_task(eng, connect(init_th, tgt_th, init_tx, tgt_tx));
  run_task(eng, login(init_th, workers));
}

void IscsiRig::attach(fault::FaultInjector& inj) {
  inj.attach(link_);
  if (!iser_) return;
  iser::IserSession* s = iser_.get();
  inj.set_qp_kill_handler([s](int) { s->kill(); });
  inj.set_crash_handler([s](int, sim::SimDuration down) { s->crash(down); });
}

}  // namespace e2e::exp
