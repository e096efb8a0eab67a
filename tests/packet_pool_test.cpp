// Fabric packets in per-shard pools: every packet waiting in a port's queue
// lanes or propagating on its wire holds exactly one block of its shard's
// packet pool (net/packet.hpp park_packet). The block travels with the packet
// from hop to hop and is released when the packet leaves the fabric (at a
// host or a cross-shard channel), when a port drops it, when a severed wire
// flushes, or when the port holding it is destroyed.
//
// Also here: the reference-model test of one Port (serializer + wire)
// against a deque-based two-stage model.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "net/port.hpp"
#include "obs/metrics.hpp"
#include "workload/scenario.hpp"

namespace uno {
namespace {

/// Packets parked in the fabric's ports right now: both queue lanes of every
/// port plus every local wire's in-flight ring.
std::size_t resident_packets(InterDcTopology& topo) {
  std::size_t n = 0;
  for (const Port* p : topo.all_ports()) n += p->queued() + p->in_flight();
  return n;
}

std::uint64_t metric(Experiment& ex, const std::string& name) {
  MetricRegistry m;
  ex.snapshot_metrics(m);
  return m.counter(name);
}

/// Run `sc` through the harness one chunk at a time and check, at every
/// chunk boundary, that the pools hold exactly the parked packets. Returns
/// the number of boundaries at which some packet was parked.
int run_balanced(Experiment& ex, Scenario& sc) {
  ScenarioHarness harness(ex, sc);
  const Time chunk = std::max<Time>(ex.config().uno.intra_rtt * 16, 100 * kMicrosecond);
  int busy_boundaries = 0;
  bool done = false;
  while (!done && harness.now() < kSecond) {
    done = harness.run(harness.now() + chunk);
    const std::size_t resident = resident_packets(ex.topo());
    EXPECT_EQ(metric(ex, "mem.packets.live"), resident) << "at t=" << harness.now();
    if (resident > 0) ++busy_boundaries;
  }
  EXPECT_TRUE(done);
  EXPECT_GE(metric(ex, "mem.packets.peak"), metric(ex, "mem.packets.live"));
  EXPECT_GT(metric(ex, "mem.packets.pool_bytes"), 0u);
  EXPECT_GT(metric(ex, "mem.packets.heap_allocs"), 0u);
  return busy_boundaries;
}

TEST(PacketPool, ResidentPacketsBalance) {
  // A permutation with trimming on, while the wires of the WAN-facing
  // core->border ports flap: each down edge flushes a wire's in-flight ring.
  ExperimentConfig cfg;
  cfg.seed = 3;
  cfg.fattree_k = 4;
  cfg.scheme = SchemeSpec::uno();
  ASSERT_TRUE(cfg.uno.trim_enabled);
  std::string err;
  ASSERT_TRUE(FaultPlan::parse("100us flap *.from_core*.l period=200us duty=0.5 until=3ms",
                               &cfg.faults, &err))
      << err;
  Experiment ex(cfg);
  std::unique_ptr<Scenario> sc = ScenarioRegistry::instance().create("permutation");
  ASSERT_NE(sc, nullptr);
  ASSERT_TRUE(sc->set_options({{"size-mb", "1"}}, &err)) << err;
  ScenarioEnv env;
  env.hosts = HostSpace{ex.topo().hosts_per_dc(), ex.topo().num_dcs()};
  env.seed = cfg.seed;
  ASSERT_TRUE(sc->init(env, &err)) << err;

  EXPECT_GT(run_balanced(ex, *sc), 0);
  ASSERT_NE(ex.fault_injector(), nullptr);
  EXPECT_GT(ex.fault_injector()->actions(), 0u);
  std::uint64_t flushed = 0;
  for (const Port* p : ex.topo().all_ports()) flushed += p->wire_drops();
  EXPECT_GT(flushed, 0u) << "the flap must drop packets at down wires";
  EXPECT_GT(ex.topo().total_trims(), 0u);
}

TEST(PacketPool, ShardedPoolsBalance) {
  // The same balance over two shards' pools on a closed-loop gpu_cluster
  // run: boundaries are barriers, where both shard threads are parked.
  ExperimentConfig cfg;
  cfg.seed = 1;
  cfg.fattree_k = 4;
  cfg.shards = 2;
  Experiment ex(cfg);
  ASSERT_EQ(ex.shards(), 2);
  std::unique_ptr<Scenario> sc = ScenarioRegistry::instance().create("gpu_cluster");
  ASSERT_NE(sc, nullptr);
  std::string err;
  ASSERT_TRUE(sc->set_options({{"jobs", "2"}, {"pp-stages", "2"}, {"microbatches", "2"},
                               {"buckets", "2"}, {"iterations", "1"}, {"act-mb", "1"},
                               {"size-mb", "8"}},
                              &err))
      << err;
  ScenarioEnv env;
  env.hosts = HostSpace{ex.topo().hosts_per_dc(), ex.topo().num_dcs()};
  env.seed = cfg.seed;
  ASSERT_TRUE(sc->init(env, &err)) << err;

  EXPECT_GT(run_balanced(ex, *sc), 0);
}

TEST(PacketPool, TeardownReleasesEveryBlock) {
  // Destroying the fabric mid-flight returns every parked packet's block.
  ExperimentConfig cfg;
  cfg.fattree_k = 4;
  cfg.scheme = SchemeSpec::uno();
  EventQueue eq;
  SlabPool pool;
  auto topo = std::make_unique<InterDcTopology>(
      std::vector<TopoAtom>{{&eq, &pool}},
      Experiment::make_topo_config(cfg.uno, cfg.scheme, 4, 1));
  SchemeStack stack(cfg.scheme, cfg.uno, 1);
  std::vector<std::unique_ptr<Flow>> flows;
  for (int i = 0; i < 4; ++i) {
    FlowParams p;
    p.id = static_cast<std::uint64_t>(i + 1);
    p.src = i;
    p.dst = 16 + i;
    p.size_bytes = 4 << 20;
    p.interdc = true;
    p.base_rtt = 2 * kMillisecond;
    flows.push_back(std::make_unique<Flow>(eq, topo->host(p.src), topo->host(p.dst), p,
                                           &topo->paths(p.src, p.dst), stack));
    flows.back()->start();
  }
  eq.run_until(300 * kMicrosecond);
  const std::size_t block = SlabPool::block_size(sizeof(Packet));
  const std::size_t resident = resident_packets(*topo);
  EXPECT_GT(resident, 0u);
  EXPECT_EQ(pool.live_bytes(), resident * block);
  flows.clear();
  topo.reset();
  EXPECT_EQ(pool.live_bytes(), 0u);
  EXPECT_GT(pool.pooled_bytes(), 0u);
}

TEST(PacketPool, HandoffAcrossPools) {
  // A hop that parks in another pool (or on the heap) takes a copy and
  // returns the sender's block; the route still delivers every packet.
  EventQueue eq;
  SlabPool a, b;
  QueueConfig cfg;
  Port pa(eq, "pa", cfg, kMicrosecond, Rng(7), &a);
  Port heap_port(eq, "heap", cfg, kMicrosecond);
  Port pb(eq, "pb", cfg, kMicrosecond, Rng(8), &b);
  struct Count final : PacketSink {
    void receive(Packet&&) override { ++n; }
    const std::string& name() const override { return name_; }
    int n = 0;
    std::string name_ = "count";
  } sink;
  Route r;
  r.hops = {&pa, &heap_port, &pb, &sink};
  for (std::uint64_t i = 0; i < 20; ++i) {
    Packet p = make_data_packet(1, i, 1000);
    p.route = &r;
    forward(std::move(p));
  }
  eq.run_all();
  EXPECT_EQ(sink.n, 20);
  EXPECT_EQ(a.live_bytes(), 0u);
  EXPECT_EQ(b.live_bytes(), 0u);
  EXPECT_EQ(a.acquires(), 20u);
  EXPECT_EQ(b.acquires(), 20u);
}

/// Terminal sink recording what a port delivers.
class Recorder final : public PacketSink {
 public:
  explicit Recorder(EventQueue& eq) : eq_(eq) {}
  void receive(Packet&& p) override { got.push_back({eq_.now(), p.seq, p.size, p.trimmed}); }
  const std::string& name() const override { return name_; }

  struct Out {
    Time at;
    std::uint64_t seq;
    std::uint32_t size;
    bool trimmed;
    bool operator==(const Out&) const = default;
  };
  std::vector<Out> got;

 private:
  EventQueue& eq_;
  std::string name_ = "recorder";
};

struct Arrival {
  Time at;
  bool data;
  std::uint32_t size;
};

/// Hands arrival i to the port when its event fires.
class Feeder final : public EventHandler {
 public:
  Feeder(const std::vector<Arrival>& arrivals, const Route& route)
      : arrivals_(arrivals), route_(route) {}
  void on_event(std::uint64_t i) override {
    const Arrival& a = arrivals_[i];
    Packet p = make_data_packet(1, i, a.size);
    if (!a.data) p.type = PacketType::kAck;
    p.route = &route_;
    forward(std::move(p));
  }

 private:
  const std::vector<Arrival>& arrivals_;
  const Route& route_;
};

/// A wire fault: down, up, or a new latency.
struct WireAction {
  enum Kind { kDown, kUp, kLatency } kind;
  Time at;
  Time latency = 0;
};

class Controller final : public EventHandler {
 public:
  Controller(const std::vector<WireAction>& actions, Port& port)
      : actions_(actions), port_(port) {}
  void on_event(std::uint64_t i) override {
    const WireAction& a = actions_[i];
    if (a.kind == WireAction::kLatency)
      port_.set_latency(a.latency);
    else
      port_.set_up(a.kind == WireAction::kUp);
  }

 private:
  const std::vector<WireAction>& actions_;
  Port& port_;
};

/// Reference port on std::deque, in two stages. The serializer: a data lane
/// and a strict-priority control lane, byte-capacity admission, NDP
/// trimming into the control lane, and a commitment to a lane's head until
/// it has been sent. The wire: a FIFO where packet i leaves at
/// max(sent_i + latency, exit of packet i-1); a down wire drops what it is
/// sent and loses what it carries. Arrivals and wire actions are all
/// scheduled up front, so at one instant they precede every service
/// completion and wire exit; the test keeps action times off the instants
/// packets move at.
struct TwoStageModel {
  QueueConfig cfg;
  Time latency = 0;
  bool up = true;
  std::deque<Recorder::Out> data, ctrl;
  std::int64_t occ = 0, ctrl_occ = 0;
  bool busy = false, serving_ctrl = false;
  Time done = 0;
  std::deque<Recorder::Out> wire;  // .at = exit time
  std::vector<Recorder::Out> delivered;
  std::uint64_t queue_drops = 0, wire_drops = 0, served = 0, trims = 0;
  std::uint64_t overdue = 0;  // packets that left after their due time

  void start(Time now) {
    busy = true;
    serving_ctrl = !ctrl.empty();
    const Recorder::Out& head = serving_ctrl ? ctrl.front() : data.front();
    done = now + serialization_time(head.size, cfg.rate);
  }
  /// Deliver every wire packet leaving before `t`.
  void drain_wire(Time t) {
    while (!wire.empty() && wire.front().at < t) {
      delivered.push_back(wire.front());
      wire.pop_front();
    }
  }
  void arrive(Time now, std::uint64_t seq, const Arrival& a) {
    Recorder::Out p{0, seq, a.size, false};
    if (!a.data || occ + a.size > cfg.capacity_bytes) {
      if (a.data) {  // overflowing data: trim if the control lane has room
        if (!cfg.trim || ctrl_occ + kTrimSize > cfg.control_capacity_bytes) {
          ++queue_drops;
          return;
        }
        p.size = kTrimSize;
        p.trimmed = true;
        ++trims;
      } else if (ctrl_occ + p.size > cfg.control_capacity_bytes) {
        ++queue_drops;
        return;
      }
      ctrl_occ += p.size;
      ctrl.push_back(p);
    } else {
      occ += p.size;
      data.push_back(p);
    }
    if (!busy) start(now);
  }
  void act(const WireAction& a) {
    drain_wire(a.at);
    if (a.kind == WireAction::kLatency) {
      latency = a.latency;
    } else if (a.kind == WireAction::kDown) {
      if (up) wire_drops += wire.size();
      wire.clear();
      up = false;
    } else {
      up = true;
    }
  }
  void complete() {
    std::deque<Recorder::Out>& lane = serving_ctrl ? ctrl : data;
    Recorder::Out p = lane.front();
    lane.pop_front();
    (serving_ctrl ? ctrl_occ : occ) -= p.size;
    ++served;
    busy = false;
    const Time now = done;
    if (!data.empty() || !ctrl.empty()) start(now);
    if (!up) {
      ++wire_drops;
      return;
    }
    p.at = now + latency;
    if (!wire.empty() && wire.back().at > p.at) {
      p.at = wire.back().at;
      ++overdue;
    }
    wire.push_back(p);
  }
};

TEST(Port, MatchesTwoStageModel) {
  QueueConfig cfg;
  cfg.capacity_bytes = 24'000;
  cfg.control_capacity_bytes = 640;
  cfg.trim = true;
  for (std::uint32_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::mt19937 rng(seed);
    std::vector<Arrival> arrivals;
    Time t = 0;
    int burst = 0;  // arrivals left in the current same-instant burst
    while (arrivals.size() < 4000) {
      // Bursts overrun both lanes (trims, then drops); gaps let them drain.
      if (burst > 0) {
        --burst;
      } else {
        t += static_cast<Time>(rng() % 600) * kNanosecond;
        if (rng() % 16 == 0) burst = 10 + static_cast<int>(rng() % 50);
      }
      const bool data = rng() % 4 != 0;
      const auto size = static_cast<std::uint32_t>(data ? 64 + rng() % 4033 : kAckSize);
      arrivals.push_back({t, data, size});
    }
    // Packets move on a 40 ps grid (ns arrivals, 80 ps/byte serialization,
    // latencies below); actions land 7 ps off it, so no action ties with a
    // packet. Two down/up cycles, then the latency falls mid-run, so heads
    // sent before the change are overtaken in time by those sent after and
    // leave late, in FIFO order.
    const Time span = t;
    auto at = [span](double frac) {
      return static_cast<Time>(frac * static_cast<double>(span)) / 40 * 40 + 7;
    };
    const Time slow = 20 * kMicrosecond, fast = 2 * kMicrosecond;
    const std::vector<WireAction> actions = {
        {WireAction::kDown, at(0.15)}, {WireAction::kUp, at(0.2)},
        {WireAction::kDown, at(0.4)},  {WireAction::kUp, at(0.41)},
        {WireAction::kLatency, at(0.6), fast},
    };

    EventQueue eq;
    SlabPool pool;
    Recorder sink(eq);
    {
      Port port(eq, "p", cfg, slow, Rng(7), &pool);
      Route route;
      route.hops = {&port, &sink};
      Feeder feeder(arrivals, route);
      Controller controller(actions, port);
      for (std::size_t i = 0; i < arrivals.size(); ++i)
        eq.schedule_at(arrivals[i].at, &feeder, i);
      for (std::size_t i = 0; i < actions.size(); ++i)
        eq.schedule_at(actions[i].at, &controller, i);
      eq.run_all();
      EXPECT_EQ(port.queued(), 0u);
      EXPECT_EQ(port.in_flight(), 0u);
      EXPECT_EQ(port.delivered(), sink.got.size());

      TwoStageModel m;
      m.cfg = cfg;
      m.latency = slow;
      std::size_t i = 0, j = 0;
      for (;;) {
        // The earliest of: the next arrival, the next action, and (strictly
        // earlier only) the serializer's completion.
        const Time next_in = std::min(i < arrivals.size() ? arrivals[i].at : kTimeInfinity,
                                      j < actions.size() ? actions[j].at : kTimeInfinity);
        if (m.busy && m.done < next_in) {
          m.complete();
        } else if (next_in == kTimeInfinity) {
          break;
        } else if (i < arrivals.size() && arrivals[i].at == next_in) {
          m.arrive(arrivals[i].at, i, arrivals[i]);
          ++i;
        } else {
          m.act(actions[j++]);
        }
      }
      m.drain_wire(kTimeInfinity);

      std::size_t trimmed = 0;
      for (const Recorder::Out& o : m.delivered) trimmed += o.trimmed;
      EXPECT_GT(trimmed, 0u);
      EXPECT_GT(m.queue_drops, 0u);
      EXPECT_GT(m.wire_drops, 0u);
      EXPECT_GT(m.overdue, 0u);
      EXPECT_EQ(sink.got, m.delivered);
      EXPECT_EQ(port.drops(), m.queue_drops);
      EXPECT_EQ(port.trims(), m.trims);
      EXPECT_EQ(port.wire_drops(), m.wire_drops);
      EXPECT_EQ(port.forwarded(), m.served);
    }
    EXPECT_EQ(pool.live_bytes(), 0u);
  }
}

}  // namespace
}  // namespace uno
