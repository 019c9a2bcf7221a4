#include "obs/probe.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "sim/engine.hpp"

namespace e2e::obs {
namespace {

// slot, trace instant, trace counter, stats counter, flight code
constexpr Probe kBoom{0, "boom", "app/booms", "booms", "boom-code"};
constexpr Probe kTick{1, "", "app/ticks", "ticks", ""};

const std::string kHost = "h";

Actor<2> make_actor() {
  return Actor<2>(Layer::kApp, Name::minted(kHost, "/worker"),
                  {Name::minted(kHost, "/worker")});
}

std::size_t count(const std::string& hay, const std::string& needle) {
  std::size_t n = 0;
  for (auto at = hay.find(needle); at != std::string::npos;
       at = hay.find(needle, at + needle.size()))
    ++n;
  return n;
}

std::string chrome(const trace::Tracer& t) {
  std::ostringstream os;
  t.write_chrome_trace(os);
  return os.str();
}

std::string flight(const stats::Registry& r) {
  std::ostringstream os;
  r.dump_flight(os);
  return os.str();
}

void expect_trace_empty(const trace::Tracer& t) {
  EXPECT_EQ(t.event_count(), 0u);
  EXPECT_EQ(t.counter_value("app/booms"), 0u);
  EXPECT_EQ(count(chrome(t), "\"thread_name\""), 0u);  // no track minted
}

void expect_stats_empty(const stats::Registry& r) {
  EXPECT_EQ(r.entity_count(), 1u);  // only the reserved overflow entity
  EXPECT_EQ(r.flight_written(), 0u);
}

// One kBoom must leave exactly one instant on the actor's minted track and
// one bump of the "<layer>/<name>" counter.
void expect_one_boom_traced(const trace::Tracer& t) {
  EXPECT_EQ(t.event_count(), 1u);
  EXPECT_EQ(t.counter_value("app/booms"), 1u);
  const std::string c = chrome(t);
  EXPECT_EQ(count(c, "\"ph\":\"i\""), 1u);
  EXPECT_EQ(count(c, "\"name\":\"boom\""), 1u);
  EXPECT_EQ(count(c, "\"name\":\"h/worker#0\""), 1u);
}

// ... and one entity counter bump plus one flight record carrying the arg.
void expect_one_boom_recorded(const stats::Registry& r) {
  ASSERT_EQ(r.entity_count(), 2u);
  EXPECT_EQ(r.entity_name(1), "h/worker#0");
  EXPECT_EQ(r.entity_layer(1), Layer::kApp);
  EXPECT_EQ(r.counter_value(1, "booms"), 1u);
  EXPECT_EQ(r.flight_written(), 1u);
  const std::string f = flight(r);
  EXPECT_EQ(count(f, "\n"), 1u);
  EXPECT_NE(f.find("app   h/worker#0 boom-code arg=42"), std::string::npos)
      << f;
}

TEST(Probe, NoSinkInstalledTouchesNothing) {
  sim::Engine eng;
  trace::Tracer t(eng);
  stats::Registry r(eng);
  Actor<2> a = make_actor();
  a.emit(eng, kBoom, 42);
  expect_trace_empty(t);
  expect_stats_empty(r);
}

TEST(Probe, TracerOnlyGetsInstantAndCounter) {
  sim::Engine eng;
  trace::Tracer t(eng);
  stats::Registry r(eng);
  t.install();
  Actor<2> a = make_actor();
  a.emit(eng, kBoom, 42);
  expect_one_boom_traced(t);
  expect_stats_empty(r);
}

TEST(Probe, RegistryOnlyGetsCounterAndFlightRecord) {
  sim::Engine eng;
  trace::Tracer t(eng);
  stats::Registry r(eng);
  r.install();
  Actor<2> a = make_actor();
  a.emit(eng, kBoom, 42);
  expect_trace_empty(t);
  expect_one_boom_recorded(r);
}

TEST(Probe, BothSinksGetOneOfEach) {
  sim::Engine eng;
  trace::Tracer t(eng);
  stats::Registry r(eng);
  t.install();
  r.install();
  Actor<2> a = make_actor();
  a.emit(eng, kBoom, 42);
  expect_one_boom_traced(t);
  expect_one_boom_recorded(r);
}

TEST(Probe, PartsNamedNowhereStayAbsent) {
  // kTick has no instant and no flight code: counters only, no track.
  sim::Engine eng;
  trace::Tracer t(eng);
  stats::Registry r(eng);
  t.install();
  r.install();
  Actor<2> a = make_actor();
  a.emit(eng, kTick);
  a.emit(eng, kTick);
  EXPECT_EQ(t.event_count(), 0u);
  EXPECT_EQ(t.counter_value("app/ticks"), 2u);
  EXPECT_EQ(count(chrome(t), "\"thread_name\""), 0u);
  EXPECT_EQ(r.counter_value(1, "ticks"), 2u);
  EXPECT_EQ(r.flight_written(), 0u);
}

TEST(Actor, TrackRemintsPerTracer) {
  sim::Engine eng;
  Actor<2> a = make_actor();
  trace::TrackId first;
  {
    trace::Tracer t1(eng);
    t1.install();
    first = a.track(&t1);
    EXPECT_EQ(a.track(&t1), first);  // cached
    a.emit(eng, kBoom);
    EXPECT_EQ(t1.event_count(), 1u);
  }
  trace::Tracer t2(eng);
  t2.install();
  // A fresh tracer starts numbering from scratch; the handle must re-mint
  // rather than hand back a track (or a counter) from the dead tracer.
  EXPECT_EQ(a.track(&t2), first);
  EXPECT_EQ(t2.event_count(), 0u);
  a.emit(eng, kBoom);
  EXPECT_EQ(t2.event_count(), 1u);
  EXPECT_EQ(t2.counter_value("app/booms"), 1u);
}

TEST(Actor, HandlesReresolveWhenRegistryChanges) {
  sim::Engine eng;
  Actor<2> a = make_actor();
  stats::Registry st1(eng);
  stats::Registry st2(eng);

  st1.install();
  const stats::EntityId e1 = a.entity(&st1);
  a.emit(eng, kTick);
  EXPECT_EQ(a.entity(&st1), e1);  // steady state: cached
  EXPECT_EQ(st1.counter_value(e1, "ticks"), 1u);

  // Swapping the installed registry must re-resolve the handle into the
  // new registry's pools, not keep writing into st1's.
  st2.install();
  for (int i = 0; i < 5; ++i) a.emit(eng, kTick);
  a.emit(eng, kBoom, 7);
  const stats::EntityId e2 = a.entity(&st2);
  EXPECT_EQ(st2.counter_value(e2, "ticks"), 5u);
  EXPECT_EQ(st2.counter_value(e2, "booms"), 1u);
  EXPECT_EQ(st2.flight_written(), 1u);
  EXPECT_EQ(st1.counter_value(e1, "ticks"), 1u);  // st1 untouched
  EXPECT_EQ(st1.flight_written(), 0u);
}

TEST(Actor, TracklessActorStillCountsAndRecords) {
  // An actor with no track (e.g. the iSER session supervisor) takes probes
  // without an instant: counters on both sinks, flight record on one.
  sim::Engine eng;
  trace::Tracer t(eng);
  stats::Registry r(eng);
  t.install();
  r.install();
  constexpr Probe kGaveUp{0, "", "app/give_ups", "give_ups", "gave-up"};
  Actor<1, 0> a(Layer::kApp, Name::shared("session"), {});
  a.emit(eng, kGaveUp, 3);
  EXPECT_EQ(t.event_count(), 0u);
  EXPECT_EQ(t.counter_value("app/give_ups"), 1u);
  EXPECT_EQ(count(chrome(t), "\"thread_name\""), 0u);
  ASSERT_EQ(r.entity_count(), 2u);
  EXPECT_EQ(r.entity_name(1), "session");
  EXPECT_EQ(r.counter_value(1, "give_ups"), 1u);
  EXPECT_NE(flight(r).find("session gave-up arg=3"), std::string::npos);
}

TEST(Actor, SharedNamesResolveToOneTrackAndEntity) {
  sim::Engine eng;
  trace::Tracer t(eng);
  stats::Registry r(eng);
  Actor<2> a(Layer::kRftp, Name::shared("stream", 3),
             {Name::shared("stream", 3)});
  Actor<2> b(Layer::kRftp, Name::shared("stream", 3),
             {Name::shared("stream", 3)});
  EXPECT_EQ(a.track(&t), b.track(&t));
  EXPECT_EQ(a.entity(&r), b.entity(&r));
  EXPECT_EQ(r.entity_name(a.entity(&r)), "stream3");
}

}  // namespace
}  // namespace e2e::obs
