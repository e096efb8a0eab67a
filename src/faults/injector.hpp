// FaultInjector: executes a FaultPlan against an InterDcTopology.
//
// Targets are resolved to concrete ports once at construction (the topology
// is immutable after build): a bare port name addresses the whole port, a
// name ending in ".l" only its wire and one ending in ".q" only its queue
// side. Every occurrence is scheduled on the shared event queue, and all
// stochastic state (gray-failure loss spikes) draws from a dedicated RNG
// stream family so adding faults never perturbs the random sequences of the
// workload, fabric, or load balancers.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "faults/plan.hpp"
#include "net/loss.hpp"
#include "net/port.hpp"
#include "obs/trace.hpp"
#include "sim/event.hpp"

namespace uno {

class InterDcTopology;

class FaultInjector final : public EventHandler {
 public:
  /// Resolves targets and schedules the plan. Events whose pattern matches
  /// nothing are recorded (see `unmatched()`) but otherwise ignored.
  FaultInjector(EventQueue& eq, InterDcTopology& topo, FaultPlan plan, std::uint64_t seed);

  void on_event(std::uint64_t tag) override;

  const FaultPlan& plan() const { return plan_; }
  /// Earliest disruptive event time (kTimeInfinity for repair-only plans).
  Time first_onset() const { return plan_.first_onset(); }

  /// Total wire/queue state changes applied so far.
  std::uint64_t actions() const { return actions_; }
  /// Number of wires the event at plan index `i` resolved to. Cross ports'
  /// ChannelLinks count here too: a fault pattern addresses "links" without
  /// caring which kind of wire the topology built.
  std::size_t links_matched(std::size_t i) const { return targets_[i].wires.size(); }
  std::size_t queues_matched(std::size_t i) const { return targets_[i].queues.size(); }
  /// Targets that matched no element (almost always a typo in the pattern).
  const std::vector<std::string>& unmatched() const { return unmatched_; }

  /// Attach the fault timeline to a flight recorder (kFault instants).
  void set_trace(TraceContext tc) { trace_ = tc; }

 private:
  // Tags encode (event index, phase).
  enum : std::uint32_t { kPhaseApply = 0, kPhaseRestore = 1 };
  static std::uint32_t tag_of(std::size_t event, std::uint32_t phase) {
    return static_cast<std::uint32_t>(event << 1) | phase;
  }

  /// Both in InterDcTopology::all_ports() order: local wires before the
  /// cross ports' channels.
  struct Targets {
    std::vector<Port*> wires;
    std::vector<Port*> queues;
  };
  /// Per-event saved state for restoration at `until`, one entry per wire.
  struct Saved {
    std::vector<Time> latencies;                       // kLatency
    std::vector<std::unique_ptr<LossModel>> losses;    // kLoss (displaced models)
    bool flap_down = false;                            // kFlap current phase
  };

  Targets resolve(const std::string& pattern) const;
  void apply(std::size_t i);
  void restore(std::size_t i);
  void flap_toggle(std::size_t i);
  void set_links_up(std::size_t i, bool up);

  EventQueue& eq_;
  InterDcTopology& topo_;
  FaultPlan plan_;
  std::uint64_t seed_;
  std::vector<Targets> targets_;
  std::vector<Saved> saved_;
  std::vector<std::string> unmatched_;
  std::uint64_t actions_ = 0;
  TraceContext trace_;
};

}  // namespace uno
