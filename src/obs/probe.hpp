// e2e::obs — one call per notable event, fanned out to every installed
// observer.
//
// A notable event (a QP kill, a retransmission, a drained block) lands in
// two sinks: the tracer (an instant on the actor's track plus a
// "<layer>/<name>" counter) and the stats registry (the actor entity's
// counter plus a flight record). Each event site declares its event once,
// as a constexpr Probe naming what each sink calls it, and each
// instrumented actor (a QP, a TCP endpoint, an iSER endpoint or session,
// an iSCSI initiator, an rftp stream or session) owns one Actor handle that caches
// its track, its entity and every probe's resolved ids. Actor::emit() is
// the one call.
//
// Cost: each sink sits behind its own single null check (trace::of /
// stats::of), then a compare of the sink's serial() against the slot's
// cached one and the integer bumps or ring write — no hashing and no allocation after
// first use. Resolution (track and entity mint, name and code interning,
// counter creation) runs on first use per sink in a fixed order — track,
// instant name, trace counter; entity, stats counter, code — so ids, and
// with them every export, come out in first-use order.
//
// Probes are constexpr and never written: the shard threads of a
// sim::Cluster share them. All mutable state lives in the Actor, which
// belongs to one shard.
//
// Spans, histograms, gauges and value series go to one sink only; sites
// record those directly on that sink, using track() / entity() for the
// actor's ids.
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "sim/engine.hpp"
#include "sim/layer.hpp"
#include "stats/registry.hpp"
#include "trace/tracer.hpp"

namespace e2e::obs {

/// One notable event, declared once per site. An empty name leaves that
/// part out: a probe with no instant touches no track, one with no code
/// writes no flight record, one naming nothing on a sink never touches it.
struct Probe {
  constexpr Probe(std::uint8_t slot_, std::string_view instant_,
                  std::string_view trace_counter_, std::string_view counter_,
                  std::string_view code_, std::uint8_t track_ = 0)
      : slot(slot_),
        track(track_),
        instant(instant_),
        trace_counter(trace_counter_),
        counter(counter_),
        code(code_) {}

  std::uint8_t slot;   // this probe's cache slot in the actor's handle
  std::uint8_t track;  // which of the actor's tracks takes the instant
  std::string_view instant;        // trace: instant on the actor's track
  std::string_view trace_counter;  // trace: "<layer>/<name>" counter, +1
  std::string_view counter;        // stats: the actor entity's counter, +1
  std::string_view code;           // stats: flight record, arg from emit()
};

/// How an actor names a track or its entity on first use per sink. A
/// minted name gets a per-sink "#<n>" suffix in first-mint order (one
/// track or entity per actor); a shared one is idempotent (every actor
/// naming it gets the same one).
struct Name {
  const std::string* prefix;  // e.g. the host's name; null = none
  std::string_view base;
  int number;  // appended in decimal when >= 0
  bool mint;

  /// "<prefix><base>#<n>".
  static Name minted(const std::string& prefix, std::string_view base) {
    return {&prefix, base, -1, true};
  }
  /// "<base>#<n>".
  static constexpr Name minted(std::string_view base) {
    return {nullptr, base, -1, true};
  }
  /// "<base>", or "<base><number>" when a number is given.
  static constexpr Name shared(std::string_view base, int number = -1) {
    return {nullptr, base, number, false};
  }

  [[nodiscard]] std::string str() const {
    std::string s;
    if (prefix != nullptr) s.append(*prefix);
    s.append(base);
    if (number >= 0) s.append(std::to_string(number));
    return s;
  }
};

/// One instrumented actor's handle: its `Tracks` trace tracks, its stats
/// entity and `Probes` probe slots, each re-resolved only when the
/// installed tracer or registry changes (including to a new one at a dead
/// one's address).
template <std::size_t Probes, std::size_t Tracks = 1>
class Actor {
 public:
  Actor() = default;
  Actor(Layer layer, Name entity, std::array<Name, Tracks> tracks)
      : layer_(layer), entity_name_(entity), track_names_(tracks) {}

  /// The one call per notable event: an instant plus counter on the
  /// tracer, a counter plus flight record (carrying `arg`) on the registry.
  void emit(sim::Engine& eng, const Probe& p, std::uint64_t arg = 0) {
    assert(p.slot < Probes && (p.instant.empty() || p.track < Tracks));
    Slot& s = slots_[p.slot];
    // A sink the probe names nothing on is never touched: no track or
    // entity gets made for it.
    if (!p.instant.empty() || !p.trace_counter.empty()) {
      if (trace::Tracer* tr = trace::of(eng)) {
        if (s.tracer != tr->serial()) resolve(s, tr, p);
        if (!p.instant.empty()) tr->instant(s.track, s.instant);
        if (s.trace_counter != nullptr) s.trace_counter->add(1);
      }
    }
    if (!p.counter.empty() || !p.code.empty()) {
      if (stats::Registry* st = stats::of(eng)) {
        if (s.registry != st->serial()) resolve(s, st, p);
        if (s.counter != nullptr) s.counter->add(1);
        if (!p.code.empty()) st->flight(layer_, entity(st), s.code, arg);
      }
    }
  }

  /// This actor's track `i` on `tr`, made on first use per tracer.
  trace::TrackId track(trace::Tracer* tr, std::size_t i = 0) {
    TrackCache& t = tracks_[i];
    if (t.owner != tr->serial()) {
      const Name& n = track_names_[i];
      t.id = n.mint ? tr->mint_track(layer_, n.str())
                    : tr->track(layer_, n.str());
      t.owner = tr->serial();
    }
    return t.id;
  }

  /// This actor's stats entity on `st`, made on first use per registry.
  stats::EntityId entity(stats::Registry* st) {
    if (entity_owner_ != st->serial()) {
      entity_ = entity_name_.mint
                    ? st->mint_entity(layer_, entity_name_.str())
                    : st->entity(layer_, entity_name_.str());
      entity_owner_ = st->serial();
    }
    return entity_;
  }

 private:
  // Caches key on the observers' serial(), never on their addresses: a
  // new tracer or registry may reuse a destroyed one's address.
  struct Slot {
    std::uint64_t tracer = 0;
    trace::TrackId track = 0;
    trace::NameId instant = 0;
    trace::Counter* trace_counter = nullptr;
    std::uint64_t registry = 0;
    stats::Counter* counter = nullptr;
    stats::CodeId code = 0;
  };
  struct TrackCache {
    std::uint64_t owner = 0;
    trace::TrackId id = 0;
  };

  void resolve(Slot& s, trace::Tracer* tr, const Probe& p) {
    if (!p.instant.empty()) {
      s.track = track(tr, p.track);
      s.instant = tr->name_id(p.instant);
    }
    s.trace_counter =
        p.trace_counter.empty() ? nullptr : &tr->counter(p.trace_counter);
    s.tracer = tr->serial();
  }

  void resolve(Slot& s, stats::Registry* st, const Probe& p) {
    const stats::EntityId e = entity(st);
    s.counter = p.counter.empty() ? nullptr : &st->counter(e, p.counter);
    if (!p.code.empty()) s.code = st->code(p.code);
    s.registry = st->serial();
  }

  Layer layer_ = Layer::kSim;
  Name entity_name_ = Name::shared("");
  std::array<Name, Tracks> track_names_{};
  std::uint64_t entity_owner_ = 0;
  stats::EntityId entity_ = 0;
  std::array<TrackCache, Tracks> tracks_{};
  std::array<Slot, Probes> slots_{};
};

}  // namespace e2e::obs
