// Small-message RPC tier over the verbs layer.
//
// The bulk-transfer protocols in this tree (rftp, iser) move megabyte
// blocks; this layer is the other end of the design space the paper's
// testbed also exercises with perftest: many small SEND/RECV messages per
// second, where per-operation CPU — posting, doorbells, completion
// polling — dominates. Three mechanisms keep that CPU sublinear in the
// message count:
//
//  * SEND/RECV rings: each endpoint keeps a fixed ring of posted receives
//    backed by one registered region; consumed receives are re-posted in
//    doorbell-sized batches, so the ring never allocates and RNR (ring
//    exhaustion) is an observable stall, not an error.
//  * Doorbell batching: requests and responses funnel through a pump
//    coroutine that drains its queue and posts up to `doorbell_batch` WRs
//    behind one doorbell (QueuePair::post_send_batch). An idle pump posts
//    whatever it holds immediately — batching never adds latency, it only
//    coalesces work that was already simultaneous.
//  * Completion batching: reapers block for the first CQE (full poll cost)
//    then drain everything else already queued at the reduced per-extra
//    cost. The blocking wait doubles as flush-on-idle: a lone completion
//    is processed the moment it lands.
//
// Calls are identified by a 32-bit id packing a 16-bit call-slot index and
// a 16-bit generation (CallTable) carried in the verbs immediate word. The
// generation check makes duplicate/late responses — a retried call whose
// original response eventually arrives, or a response outliving its
// connection epoch — drop cleanly instead of completing a recycled slot
// (the PR 4 flat-table shape, sized down to the id space an immediate
// affords).
//
// Lost requests are re-sent from one retry deadline queue per client: a
// reused ring of (deadline, call id) entries in issue order, behind at
// most one engine timer armed at the earliest deadline still pending. A
// call answered in microseconds therefore costs a ring push and pop, not a
// 5 ms timer event parked in the engine heap. An entry is live only while
// its id resolves to an unanswered call armed for that same deadline, so
// an entry outliving its call — a recycled slot, a wrapped generation, a
// re-armed retry — never fires early.
//
// Servers are coroutine-per-call: the reaper spawns one handler coroutine
// per request, so a handler that suspends (NUMA-remote copies, nested
// awaits) never blocks the ring from absorbing the next request.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "mem/msg_pool.hpp"
#include "numa/thread.hpp"
#include "rdma/qp.hpp"
#include "sim/ring_queue.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace e2e::rpc {

struct RpcConfig {
  std::size_t recv_ring = 64;      // receives kept posted per endpoint
  std::size_t window = 16;         // client-side outstanding-call cap
  std::size_t doorbell_batch = 4;  // max WRs coalesced behind one doorbell
  std::uint64_t header_bytes = 64;  // wire bytes of the rpc header itself
  // Retry deadline: a call unanswered this long after it was (re-)sent is
  // re-sent (lost request, flushed send, dropped response), so re-sends
  // land at issued_at + k * retry_after. 0 disables retries.
  sim::SimDuration retry_after = 5 * sim::kMillisecond;
  // Expired deadlines before the call completes with ok=false. Generous:
  // under chaos the QP may sit in the error state across several periods
  // while a supervisor re-establishes it.
  int max_retries = 256;
};

/// Call-slot table: call ids pack a 16-bit slot index and a 16-bit
/// generation, so an id fits the verbs immediate word. Slots recycle
/// through a free list; release bumps the generation (wrapping 0xFFFF -> 1,
/// generation 0 is never issued so id 0 can serve as a null sentinel), and
/// find() resolves an id only while its generation is current. The ABA
/// window is a full 65535 recycles of one slot: a wrapped id resolves again,
/// so whoever holds an old id past that must check more than find() (the
/// client's retry queue also matches the call's armed deadline).
class CallTable {
 public:
  static constexpr std::size_t kMaxSlots = 1ull << 16;

  struct Call {
    explicit Call(sim::Engine& eng) : done(eng) {}
    sim::ManualEvent done;
    std::uint32_t id = 0;
    // Request, kept for timer-driven retries.
    std::uint64_t req_bytes = 0;
    mem::MsgPtr request;
    // Outcome.
    bool ok = false;
    std::uint64_t resp_bytes = 0;
    mem::MsgPtr response;
    int retries = 0;
    sim::SimTime issued_at = 0;
    // Deadline of the call's live retry-queue entry (0: none armed).
    sim::SimTime retry_deadline = 0;
  };

  explicit CallTable(sim::Engine& eng) : eng_(eng) {}

  /// Acquires a slot (allocating only the first time a slot is used) and
  /// resets the recycled Call. Throws when all 2^16 slots are live.
  Call& begin() {
    std::uint32_t idx;
    if (!free_.empty()) {
      idx = free_.back();
      free_.pop_back();
    } else {
      if (slots_.size() == kMaxSlots)
        throw std::runtime_error("rpc: call table exhausted");
      idx = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back(Slot{std::make_unique<Call>(eng_), 1, false});
    }
    Slot& s = slots_[idx];
    s.live = true;
    Call& c = *s.call;
    c.id = (idx << 16) | s.gen;
    c.done.reset();
    c.request.reset();
    c.response.reset();
    c.ok = false;
    c.resp_bytes = 0;
    c.retries = 0;
    c.issued_at = 0;
    c.retry_deadline = 0;
    return c;
  }

  /// Resolves an id; nullptr when the slot was released (stale generation)
  /// or never issued.
  [[nodiscard]] Call* find(std::uint32_t id) noexcept {
    const std::uint32_t idx = id >> 16;
    const std::uint16_t gen = static_cast<std::uint16_t>(id & 0xFFFFu);
    if (idx >= slots_.size()) return nullptr;
    Slot& s = slots_[idx];
    return (s.live && s.gen == gen) ? s.call.get() : nullptr;
  }

  /// Releases the call's slot; its id (and any retry entry holding it)
  /// goes stale. The generation wraps past 0xFFFF back to 1.
  void end(Call& c) noexcept {
    const std::uint32_t idx = c.id >> 16;
    Slot& s = slots_[idx];
    s.live = false;
    s.gen = s.gen == 0xFFFFu ? std::uint16_t{1}
                             : static_cast<std::uint16_t>(s.gen + 1);
    c.request.reset();
    c.response.reset();
    free_.push_back(idx);
  }

  [[nodiscard]] std::size_t live() const noexcept {
    return slots_.size() - free_.size();
  }

 private:
  struct Slot {
    std::unique_ptr<Call> call;  // stable address; constructed once
    std::uint16_t gen = 1;
    bool live = false;
  };

  sim::Engine& eng_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
};

/// Client endpoint: issues calls over one QueuePair, with windowed
/// admission, doorbell-batched request posting, batched completion
/// reaping, ring refill and one retry deadline queue.
class RpcClient {
 public:
  struct Reply {
    bool ok = false;
    std::uint64_t bytes = 0;
    mem::MsgPtr payload;
  };

  /// `ring_buf` is the registered region backing both the receive ring and
  /// request sends; it must be at least as large as the biggest message.
  /// `post_th`/`reap_th` are the threads charged for posting and polling.
  RpcClient(rdma::QueuePair& qp, numa::Thread& post_th, numa::Thread& reap_th,
            mem::Buffer& ring_buf, RpcConfig cfg);

  /// Posts the receive ring (one doorbell-batched post_recv chain) and
  /// starts the pump/reaper loops. Await once before the first call().
  sim::Task<> start();

  /// One RPC: ships `request` (`req_bytes` on the wire, rpc header
  /// included) and completes with the server's reply. Suspends for window
  /// admission, then for the reply. ok=false after max_retries timeouts.
  sim::Task<Reply> call(std::uint64_t req_bytes, mem::MsgPtr request);

  // Observability (tests, scenario digests).
  [[nodiscard]] std::uint64_t calls_issued() const noexcept {
    return calls_issued_;
  }
  [[nodiscard]] std::uint64_t retries() const noexcept { return retries_; }
  [[nodiscard]] std::uint64_t calls_failed() const noexcept {
    return calls_failed_;
  }
  [[nodiscard]] std::uint64_t stale_responses() const noexcept {
    return stale_responses_;
  }
  [[nodiscard]] std::uint64_t doorbells() const noexcept {
    return doorbells_;
  }
  [[nodiscard]] std::uint64_t doorbell_wrs() const noexcept {
    return doorbell_wrs_;
  }
  [[nodiscard]] std::uint64_t poll_batches() const noexcept {
    return poll_batches_;
  }
  [[nodiscard]] std::uint64_t poll_cqes() const noexcept {
    return poll_cqes_;
  }
  [[nodiscard]] rdma::QueuePair& qp() noexcept { return qp_; }

 private:
  sim::Task<> send_pump();
  sim::Task<> send_reaper();
  sim::Task<> recv_reaper();
  void on_response(const rdma::WorkCompletion& wc);
  void arm_retry(CallTable::Call& c);
  void arm_timer();
  void on_deadline();
  void on_retry_timer(CallTable::Call& c);
  void pop_dead_entries();
  [[nodiscard]] rdma::SendWr request_wr(const CallTable::Call& c) const;

  /// One armed retry: the call `id` is re-sent at `deadline` unless it
  /// was answered (or re-armed) first.
  struct RetryEntry {
    sim::SimTime deadline;
    std::uint32_t id;
  };
  /// The call an entry still speaks for, or nullptr once it is dead.
  [[nodiscard]] CallTable::Call* live_call(const RetryEntry& e) noexcept;

  rdma::QueuePair& qp_;
  numa::Thread& post_th_;
  numa::Thread& reap_th_;
  mem::Buffer& buf_;
  RpcConfig cfg_;
  CallTable table_;
  sim::Semaphore window_;
  sim::Channel<rdma::SendWr> out_;
  std::vector<rdma::SendWr> send_batch_;   // pump scratch, reused
  std::vector<rdma::RecvWr> refill_batch_;  // reaper scratch, reused
  // Armed retries in issue order. retry_after is a constant and now()
  // never goes back, so deadlines are monotone and the front is earliest.
  sim::RingQueue<RetryEntry> retries_due_;
  bool timer_armed_ = false;  // at most one engine event pending
  std::uint64_t next_recv_id_ = 0;
  std::uint64_t calls_issued_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t calls_failed_ = 0;
  std::uint64_t stale_responses_ = 0;
  std::uint64_t doorbells_ = 0;
  std::uint64_t doorbell_wrs_ = 0;
  std::uint64_t poll_batches_ = 0;
  std::uint64_t poll_cqes_ = 0;
};

/// Server endpoint: reaps requests from its ring, spawns one handler
/// coroutine per call, and streams doorbell-batched responses back.
class RpcServer {
 public:
  struct Request {
    std::uint32_t id = 0;        // caller's call id (echoed in the reply)
    std::uint64_t bytes = 0;     // request wire bytes
    mem::MsgPtr payload;
  };
  struct Reply {
    std::uint64_t bytes = 0;     // response wire bytes (header + value)
    mem::MsgPtr payload;
    const mem::Buffer* source = nullptr;  // DMA source; ring buffer if null
  };

  /// Application handler, invoked as its own coroutine per request (it may
  /// suspend freely). The per-request dispatch CPU is already charged by
  /// the server before handle() runs.
  class Handler {
   public:
    virtual ~Handler() = default;
    virtual sim::Task<Reply> handle(const Request& req) = 0;
  };

  RpcServer(rdma::QueuePair& qp, numa::Thread& post_th, numa::Thread& reap_th,
            mem::Buffer& ring_buf, Handler& handler, RpcConfig cfg);

  /// Posts the receive ring and starts the loops. Await once.
  sim::Task<> start();

  [[nodiscard]] std::uint64_t calls_served() const noexcept {
    return calls_served_;
  }
  [[nodiscard]] std::uint64_t doorbells() const noexcept {
    return doorbells_;
  }
  [[nodiscard]] std::uint64_t doorbell_wrs() const noexcept {
    return doorbell_wrs_;
  }
  [[nodiscard]] std::uint64_t poll_batches() const noexcept {
    return poll_batches_;
  }
  [[nodiscard]] std::uint64_t poll_cqes() const noexcept {
    return poll_cqes_;
  }
  [[nodiscard]] rdma::QueuePair& qp() noexcept { return qp_; }

 private:
  sim::Task<> send_pump();
  sim::Task<> send_reaper();
  sim::Task<> recv_reaper();
  sim::Task<> serve_one(Request req);

  rdma::QueuePair& qp_;
  numa::Thread& post_th_;
  numa::Thread& reap_th_;
  mem::Buffer& buf_;
  Handler& handler_;
  RpcConfig cfg_;
  sim::Channel<rdma::SendWr> out_;
  std::vector<rdma::SendWr> send_batch_;
  std::vector<rdma::RecvWr> refill_batch_;
  std::uint64_t next_recv_id_ = 0;
  std::uint64_t calls_served_ = 0;
  std::uint64_t doorbells_ = 0;
  std::uint64_t doorbell_wrs_ = 0;
  std::uint64_t poll_batches_ = 0;
  std::uint64_t poll_cqes_ = 0;
};

}  // namespace e2e::rpc
