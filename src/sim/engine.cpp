#include "sim/engine.hpp"

#include <atomic>
#include <utility>

#include "sim/cluster.hpp"

namespace e2e::sim {

std::uint64_t next_observer_serial() noexcept {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

Engine::~Engine() {
  if (cluster_ != nullptr) cluster_->detach(*this);
}

// Sift operations move 24-byte POD keys only; the EventFn payloads stay put
// in slots_ until dispatch, so reordering the heap never runs a relocate
// thunk and a sift touches at most log4(n) contiguous cache lines.

std::uint32_t Engine::claim_slot(EventFn&& fn) {
  if (!free_slots_.empty()) {
    const std::uint32_t s = free_slots_.back();
    free_slots_.pop_back();
    slots_[s] = std::move(fn);
    return s;
  }
  const std::uint32_t s = static_cast<std::uint32_t>(slots_.size());
  slots_.push_back(std::move(fn));
  return s;
}

void Engine::sift_up(std::size_t i) {
  const Event e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void Engine::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const Event e = heap_[i];
  for (;;) {
    const std::size_t first = i * kArity + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = first + kArity < n ? first + kArity : n;
    for (std::size_t c = first + 1; c < last; ++c)
      if (before(heap_[c], heap_[best])) best = c;
    if (!before(heap_[best], e)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

void Engine::schedule_at(SimTime t, EventFn fn) {
  if (t < now_) t = now_;
  const std::uint32_t slot = claim_slot(std::move(fn));
  heap_.push_back(Event{t, next_seq_++, slot});
  sift_up(heap_.size() - 1);
}

void Engine::dispatch_one() {
  // Move the callback out before popping: fn may schedule new events.
  const Event top = heap_.front();
  now_ = top.t;
  EventFn fn = std::move(slots_[top.slot]);
  free_slots_.push_back(top.slot);
  if (heap_.size() > 1) {
    heap_.front() = heap_.back();
    heap_.pop_back();
    sift_down(0);
  } else {
    heap_.pop_back();
  }
  ++events_processed_;
  fn();
}

void Engine::run() {
  stopped_ = false;
  while (!heap_.empty() && !stopped_) dispatch_one();
}

std::uint64_t Engine::run_until(SimTime t) {
  stopped_ = false;
  const std::uint64_t before_count = events_processed_;
  while (!heap_.empty() && !stopped_ && heap_.front().t <= t) dispatch_one();
  if (!stopped_ && now_ < t) now_ = t;
  return events_processed_ - before_count;
}

std::uint64_t Engine::run_window(SimTime horizon) {
  stopped_ = false;
  const std::uint64_t before_count = events_processed_;
  while (!heap_.empty() && !stopped_ && heap_.front().t < horizon)
    dispatch_one();
  return events_processed_ - before_count;
}

void Engine::cross_post(Engine& dst, SimTime t, EventFn fn) {
  if (&dst == this || cluster_ == nullptr || dst.cluster_ != cluster_) {
    dst.schedule_at(t, std::move(fn));
    return;
  }
  cluster_->post(rank_, dst.rank_, t, std::move(fn));
}

}  // namespace e2e::sim
