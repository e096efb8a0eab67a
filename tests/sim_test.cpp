// Unit tests for the discrete-event core: time arithmetic, event ordering,
// timers, and RNG stream independence.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "lb/loadbalancer.hpp"
#include "sim/event.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace uno {
namespace {

TEST(Time, UnitsCompose) {
  EXPECT_EQ(kNanosecond, 1000);
  EXPECT_EQ(kMicrosecond, 1'000'000);
  EXPECT_EQ(kMillisecond, 1'000'000'000);
  EXPECT_EQ(kSecond, 1'000'000'000'000LL);
}

TEST(Time, SerializationTimeExactAt100G) {
  // 4096 B at 100 Gbps = 4096*8/100e9 s = 327.68 ns.
  EXPECT_EQ(serialization_time(4096, 100 * kGbps), 327'680);
  EXPECT_EQ(serialization_time(0, 100 * kGbps), 0);
  // Rounds up: 1 byte at 1 Tbps = 8 ps exactly.
  EXPECT_EQ(serialization_time(1, 1000 * kGbps), 8);
}

TEST(Time, SerializationHandlesHugeMessages) {
  // 1 GiB at 100 Gbps ~ 85.9 ms; must not overflow.
  const Time t = serialization_time(1LL << 30, 100 * kGbps);
  EXPECT_NEAR(to_milliseconds(t), 85.899, 0.01);
}

TEST(Time, BytesInInterval) {
  EXPECT_EQ(bytes_in_interval(kSecond, 8), 1);
  EXPECT_EQ(bytes_in_interval(kMicrosecond, 100 * kGbps), 12'500);
  EXPECT_EQ(bdp_bytes(14 * kMicrosecond, 100 * kGbps), 175'000);
  EXPECT_EQ(bdp_bytes(2 * kMillisecond, 100 * kGbps), 25'000'000);
}

class Recorder : public EventHandler {
 public:
  explicit Recorder(EventQueue& eq) : eq_(eq) {}
  void on_event(std::uint64_t tag) override {
    fired.push_back({eq_.now(), tag});
  }
  std::vector<std::pair<Time, std::uint64_t>> fired;

 private:
  EventQueue& eq_;
};

// A handler's queue binding is a raw back-pointer plus a slot: two of them
// sit in every flow record (DESIGN.md §15).
static_assert(sizeof(EventHandler) <= 24, "the handler binding grew");

/// Either side of a binding may die first. A queue destroyed with an event
/// still pending unbinds the handler, which can then bind to another queue;
/// the ASan leg catches a handler touching the dead queue's registry.
TEST(Sim, HandlerOutlivesQueue) {
  struct Counter final : EventHandler {
    int fired = 0;
    void on_event(std::uint64_t) override { ++fired; }
  };
  Counter h;
  {
    EventQueue eq;
    eq.schedule_at(10, &h);
    eq.run_until(5);
    EXPECT_EQ(eq.pending(), 1u);
  }  // the queue dies first, its event still pending
  EXPECT_EQ(h.fired, 0);
  {
    EventQueue eq;
    eq.schedule_at(3, &h);
    EXPECT_EQ(eq.run_all(), 1u);
  }
  EXPECT_EQ(h.fired, 1);
  auto doomed = std::make_unique<Counter>();
  EventQueue eq;
  eq.schedule_at(1, doomed.get());
  doomed.reset();  // the handler dies first: its wakeup goes stale
  EXPECT_EQ(eq.run_all(), 0u);
}

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue eq;
  Recorder r(eq);
  eq.schedule_at(300, &r, 3);
  eq.schedule_at(100, &r, 1);
  eq.schedule_at(200, &r, 2);
  eq.run_all();
  ASSERT_EQ(r.fired.size(), 3u);
  EXPECT_EQ(r.fired[0], (std::pair<Time, std::uint64_t>{100, 1}));
  EXPECT_EQ(r.fired[1], (std::pair<Time, std::uint64_t>{200, 2}));
  EXPECT_EQ(r.fired[2], (std::pair<Time, std::uint64_t>{300, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue eq;
  Recorder r(eq);
  for (std::uint32_t i = 0; i < 10; ++i) eq.schedule_at(50, &r, i);
  eq.run_all();
  ASSERT_EQ(r.fired.size(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(r.fired[i].second, i);
}

TEST(EventQueue, RunUntilStopsAtDeadline) {
  EventQueue eq;
  Recorder r(eq);
  eq.schedule_at(100, &r, 1);
  eq.schedule_at(200, &r, 2);
  EXPECT_EQ(eq.run_until(150), 1u);
  EXPECT_EQ(eq.now(), 150);
  EXPECT_EQ(eq.pending(), 1u);
  EXPECT_EQ(eq.run_until(250), 1u);
  EXPECT_EQ(r.fired.size(), 2u);
}

TEST(EventQueue, HandlerCanScheduleMore) {
  EventQueue eq;
  struct Chain : EventHandler {
    EventQueue& eq;
    int count = 0;
    explicit Chain(EventQueue& e) : eq(e) {}
    void on_event(std::uint64_t) override {
      if (++count < 5) eq.schedule_in(10, this);
    }
  } chain(eq);
  eq.schedule_at(0, &chain);
  eq.run_all();
  EXPECT_EQ(chain.count, 5);
  EXPECT_EQ(eq.now(), 40);
}

TEST(Timer, FiresOnceAtDeadline) {
  EventQueue eq;
  Recorder r(eq);
  Timer t(eq, &r, 7);
  t.arm_at(500);
  EXPECT_TRUE(t.armed());
  eq.run_all();
  ASSERT_EQ(r.fired.size(), 1u);
  EXPECT_EQ(r.fired[0], (std::pair<Time, std::uint64_t>{500, 7}));
  EXPECT_FALSE(t.armed());
}

TEST(Timer, CancelSuppressesFiring) {
  EventQueue eq;
  Recorder r(eq);
  Timer t(eq, &r, 7);
  t.arm_at(500);
  t.cancel();
  eq.run_all();
  EXPECT_TRUE(r.fired.empty());
}

TEST(Timer, RearmSupersedesOldDeadline) {
  EventQueue eq;
  Recorder r(eq);
  Timer t(eq, &r, 7);
  t.arm_at(500);
  t.arm_at(800);  // supersedes
  eq.run_all();
  ASSERT_EQ(r.fired.size(), 1u);
  EXPECT_EQ(r.fired[0].first, 800);
}

TEST(Timer, RearmAfterFire) {
  EventQueue eq;
  Recorder r(eq);
  Timer t(eq, &r, 1);
  t.arm_at(10);
  eq.run_until(20);
  t.arm_at(30);
  eq.run_all();
  EXPECT_EQ(r.fired.size(), 2u);
}

TEST(EventQueue, StaleEventsForDeadHandlersAreSkipped) {
  EventQueue eq;
  auto r1 = std::make_unique<Recorder>(eq);
  Recorder r2(eq);
  eq.schedule_at(100, r1.get(), 1);
  eq.schedule_at(200, &r2, 2);
  r1.reset();  // destroy with an event still queued
  eq.run_all();
  EXPECT_EQ(r2.fired.size(), 1u);  // r2 unaffected, r1's wakeup skipped
  EXPECT_EQ(eq.now(), 200);
}

TEST(Rng, StreamsAreIndependent) {
  Rng a = Rng::stream(1, 0);
  Rng b = Rng::stream(1, 1);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.uniform_below(1000) == b.uniform_below(1000)) ++same;
  EXPECT_LT(same, 10);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a = Rng::stream(42, 7);
  Rng b = Rng::stream(42, 7);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a.uniform_below(1 << 30), b.uniform_below(1 << 30));
}

TEST(Rng, UniformBounds) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    EXPECT_LT(r.uniform_below(17), 17u);
  }
}

TEST(Rng, ExponentialMean) {
  Rng r(9);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(250.0);
  EXPECT_NEAR(sum / n, 250.0, 10.0);
}

// The engine is built on the first draw, seeded exactly as an eager
// std::mt19937_64 would be, and the std:: distributions are unchanged, so
// every sequence matches the reference draw for draw.
std::uint64_t splitmix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void expect_matches_reference(Rng& rng, std::uint64_t seed) {
  std::mt19937_64 ref(seed);
  using U64 = std::uniform_int_distribution<std::uint64_t>;
  using I64 = std::uniform_int_distribution<std::int64_t>;
  using Real = std::uniform_real_distribution<double>;
  for (int i = 0; i < 200; ++i) {
    switch (i % 5) {
      case 0:
        EXPECT_EQ(rng.uniform_below(1000), U64(0, 999)(ref));
        break;
      case 1:
        EXPECT_EQ(rng.uniform_int(-50, 50), I64(-50, 50)(ref));
        break;
      case 2:
        EXPECT_EQ(rng.uniform(), Real(0.0, 1.0)(ref));
        break;
      case 3:
        EXPECT_EQ(rng.exponential(250.0), std::exponential_distribution<double>(1.0 / 250.0)(ref));
        break;
      default:
        EXPECT_EQ(rng.chance(0.3), Real(0.0, 1.0)(ref) < 0.3);
    }
  }
}

TEST(Rng, LazyEngineMatchesEagerReference) {
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL, 0xDEADBEEFULL}) {
    Rng direct(seed);
    expect_matches_reference(direct, seed);
    for (std::uint64_t stream : {0ULL, 1ULL, 707ULL, 0xB0DE5ULL}) {
      Rng derived = Rng::stream(seed, stream);
      expect_matches_reference(derived, splitmix_seed(seed, stream));
    }
  }
}

TEST(Rng, MovedMidStreamContinuesSequence) {
  Rng a(99);
  Rng ref(99);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.uniform_below(1 << 20), ref.uniform_below(1 << 20));
  Rng b(std::move(a));
  for (int i = 0; i < 10; ++i) EXPECT_EQ(b.uniform_below(1 << 20), ref.uniform_below(1 << 20));
  Rng c(1);
  c = std::move(b);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(c.uniform_below(1 << 20), ref.uniform_below(1 << 20));
}

// Size budgets: a generator is its seed plus an engine pointer, and the
// per-flow LB stays small so a new member cannot silently re-inflate it
// (the per-port budget sits beside the per-flow one in scale_test).
static_assert(sizeof(Rng) <= 16);
static_assert(sizeof(UnoLb) <= 160);

}  // namespace
}  // namespace uno
