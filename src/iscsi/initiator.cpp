#include "iscsi/initiator.hpp"

#include <algorithm>
#include <stdexcept>

#include "check/audit.hpp"
#include "fault/integrity.hpp"
#include "fault/watchdog.hpp"

namespace e2e::iscsi {

sim::Task<bool> Initiator::login(numa::Thread& th, const LoginParams& params) {
  Pdu req;
  req.type = PduType::kLoginRequest;
  req.login = params;
  co_await dm_.send_pdu(th, req);

  auto resp = co_await dm_.recv_pdu(th);
  if (!resp || resp->type != PduType::kLoginResponse) co_return false;
  negotiated_ = resp->login;
  logged_in_ = true;
  co_return true;
}

void Initiator::start_dispatcher(numa::Thread& th) {
  if (dispatcher_running_) throw std::logic_error("dispatcher already running");
  if (!logged_in_) throw std::logic_error("dispatcher before login");
  dispatcher_running_ = true;
  sim::co_spawn(dispatch_loop(th));
}

sim::Task<> Initiator::dispatch_loop(numa::Thread& th) {
  for (;;) {
    auto pdu = co_await dm_.recv_pdu(th);
    if (!pdu) co_return;  // session closed
    if (pdu->type == PduType::kLogoutResponse) co_return;
    if (pdu->type != PduType::kScsiResponse) continue;  // NOPs etc.
    Pending* p = pending_.find(pdu->itt);
    if (p == nullptr || p->completed) continue;  // late dup after a retry
    p->completed = true;
    p->status = pdu->status;
    ++tasks_completed_;
    if (auto* au = check::of(th.host().engine()))
      au->flow_out(this, "iscsi.tasks", 1);
    p->wake.send(true);
  }
}

sim::Task<scsi::Status> Initiator::submit_io(numa::Thread& th, scsi::OpCode op,
                                             std::uint32_t lun,
                                             std::uint64_t lba,
                                             std::uint32_t blocks,
                                             mem::Buffer& data) {
  if (!dispatcher_running_)
    throw std::logic_error("submit before start_dispatcher");
  const std::uint64_t bytes = std::uint64_t{blocks} * scsi::Cdb::kBlockSize;
  if (data.bytes < bytes)
    throw std::length_error("I/O buffer smaller than transfer length");

  Pdu cmd;
  cmd.type = PduType::kScsiCommand;
  cmd.itt = next_itt_++;
  cmd.lun = lun;
  cmd.cdb = {op, lba, blocks};
  cmd.data_len = bytes;
  cmd.rkey = rdma::RemoteKey{&data};

  auto& eng = th.host().engine();
  Pending* pending = &pending_.emplace(cmd.itt, eng);
  pending->reset();  // the slot (and its channel) may be recycled
  const auto pending_ref = pending_.ref_of(cmd.itt);
  if (auto* au = check::of(eng)) au->flow_in(this, "iscsi.tasks", 1);

  // Concurrent SCSI tasks overlap, so each traces as an async span keyed
  // by its initiator task tag, from submission to response.
  const char* span = op == scsi::OpCode::kRead16 ? "scsi-read" : "scsi-write";
  if (auto* tr = trace::of(eng)) {
    tr->async_begin(trace_trk_.get(tr, trace::Layer::kIscsi,
                                   proc_.host().name() + "/initiator"),
                    span, cmd.itt);
    tr->counter("iscsi/tasks_submitted").add(1);
  }

  // Initiator-side task bookkeeping (tag allocation, SGL mapping).
  co_await th.compute(th.host().costs().iser_initiator_cycles,
                      metrics::CpuCategory::kUserProto);

  const sim::SimTime cmd_t0 = eng.now();
  bool terminal = false;
  sim::SimDuration timeout = command_timeout_;
  for (int attempt = 1;; ++attempt) {
    co_await dm_.send_pdu(th, cmd);
    if (command_timeout_ == 0) {
      (void)co_await pending->wake.recv();
      break;
    }
    // Arm a (jittered) timeout. The timer holds a generation-counted Ref:
    // once the rendezvous is erased (or its slot recycled for a later
    // command), a late firing resolves to null instead of waking anyone.
    const sim::SimDuration armed =
        fault::with_jitter(timeout, policy_.jitter, jitter_rng_);
    eng.schedule_after(armed, [tbl = &pending_, pending_ref] {
      if (Pending* p = tbl->get(pending_ref)) p->wake.send(false);
    });
    const auto woke = co_await pending->wake.recv();
    if (woke && *woke) break;  // genuine response
    if (attempt >= std::max(policy_.max_attempts, 1)) {
      // Retry budget exhausted: abandon the task and surface a terminal
      // transport error. Erasing the rendezvous turns any late response
      // into an ignorable duplicate.
      pending_.erase(cmd.itt);
      terminal = true;
      ++command_failures_;
      if (auto* tr = trace::of(eng)) {
        tr->instant(trace_trk_.get(tr, trace::Layer::kIscsi,
                                   proc_.host().name() + "/initiator"),
                    "command-abandoned");
        tr->counter("iscsi/command_failures").add(1);
      }
      if (auto* st = stats::of(eng)) {
        const auto e = stats_entity(st);
        sctr_failures_.get(st, e, "command_failures").add(1);
        st->flight(stats::Layer::kIscsi, e,
                   code_abandon_.get(st, "command-abandoned"), cmd.itt);
        // A command going terminal is the recovery chain giving up: dump
        // the flight window while the lead-up is still in the ring.
        st->trigger_flight_dump("iscsi:command-abandoned");
      }
      break;
    }
    // Timed out: retransmit the same task tag with the timeout grown by
    // the backoff multiplier (capped). The target suppresses duplicates,
    // so at-most-once execution is preserved.
    ++command_retries_;
    timeout =
        fault::grow(timeout, policy_.backoff_multiplier, policy_.backoff_cap);
    if (auto* tr = trace::of(eng)) {
      tr->instant(trace_trk_.get(tr, trace::Layer::kIscsi,
                                 proc_.host().name() + "/initiator"),
                  "command-retry");
      tr->counter("iscsi/command_retries").add(1);
    }
    if (auto* st = stats::of(eng)) {
      const auto e = stats_entity(st);
      sctr_retries_.get(st, e, "command_retries").add(1);
      st->flight(stats::Layer::kIscsi, e,
                 code_retry_.get(st, "command-retry"), cmd.itt);
    }
  }
  if (auto* tr = trace::of(eng)) {
    tr->async_end(trace_trk_.get(tr, trace::Layer::kIscsi,
                                 proc_.host().name() + "/initiator"),
                  span, cmd.itt);
    tr->counter(terminal ? "iscsi/tasks_failed" : "iscsi/tasks_completed")
        .add(1);
  }
  if (auto* st = stats::of(eng)) {
    const auto e = stats_entity(st);
    hist_cmd_.get(st, e, "cmd_ns")
        .record(static_cast<std::uint64_t>(eng.now() - cmd_t0));
    st->counter(e, terminal ? "tasks_failed" : "tasks_completed").add(1);
  }
  if (terminal) co_return scsi::Status::kTransportError;
  // Release the rendezvous slot for recycling only after the status is out
  // of it (the terminal path released it when it abandoned the task).
  const scsi::Status status = pending->status;
  pending_.erase(cmd.itt);
  co_return status;
}

sim::Task<scsi::Status> Initiator::submit_read(numa::Thread& th,
                                               std::uint32_t lun,
                                               std::uint64_t lba,
                                               std::uint32_t blocks,
                                               mem::Buffer& data) {
  if (!policy_.verify_read_digest)
    co_return co_await submit_io(th, scsi::OpCode::kRead16, lun, lba, blocks,
                                 data);
  // End-to-end integrity: the landed data must compose to the analytic
  // range tag. A lost Data-In delivery leaves the tag short even when the
  // control path replays a GOOD response, so mismatches re-drive the whole
  // I/O under a fresh task tag (a fresh ITT defeats the replay cache).
  const std::uint64_t expected = fault::block_range_tag(lba, blocks);
  auto& eng = th.host().engine();
  for (int attempt = 0;; ++attempt) {
    data.content_tag = 0;
    const auto st =
        co_await submit_io(th, scsi::OpCode::kRead16, lun, lba, blocks, data);
    if (st != scsi::Status::kGood) co_return st;
    if (data.content_tag == expected) co_return scsi::Status::kGood;
    ++digest_errors_;
    if (auto* tr = trace::of(eng)) {
      tr->instant(trace_trk_.get(tr, trace::Layer::kIscsi,
                                 proc_.host().name() + "/initiator"),
                  "digest-mismatch");
      tr->counter("iscsi/digest_errors").add(1);
    }
    if (auto* sr = stats::of(eng))
      sr->counter(stats_entity(sr), "digest_errors").add(1);
    if (attempt >= policy_.max_digest_retries) {
      ++command_failures_;
      if (auto* tr = trace::of(eng))
        tr->counter("iscsi/command_failures").add(1);
      co_return scsi::Status::kTransportError;
    }
  }
}

sim::Task<scsi::Status> Initiator::submit_write(numa::Thread& th,
                                                std::uint32_t lun,
                                                std::uint64_t lba,
                                                std::uint32_t blocks,
                                                mem::Buffer& data) {
  // Stamp the source buffer's identity so one-sided pulls propagate it;
  // write-path integrity is verified against the LUN's written digest.
  data.content_tag = fault::block_range_tag(lba, blocks);
  return submit_io(th, scsi::OpCode::kWrite16, lun, lba, blocks, data);
}

sim::Task<> Initiator::logout(numa::Thread& th) {
  Pdu req;
  req.type = PduType::kLogoutRequest;
  co_await dm_.send_pdu(th, req);
  logged_in_ = false;
}

}  // namespace e2e::iscsi
