#include "faults/injector.hpp"

#include <algorithm>
#include <cassert>

#include "topo/interdc.hpp"

namespace uno {

namespace {

/// Expand the border:N / border:* sugar into a name glob.
std::string expand_target(const std::string& target) {
  if (target.rfind("border:", 0) == 0) {
    const std::string idx = target.substr(7);
    return idx == "*" ? "*.cross*" : "*.cross*." + idx;
  }
  return target;
}

}  // namespace

FaultInjector::FaultInjector(EventQueue& eq, InterDcTopology& topo, FaultPlan plan,
                             std::uint64_t seed)
    : eq_(eq), topo_(topo), plan_(std::move(plan)), seed_(seed) {
  targets_.resize(plan_.events.size());
  saved_.resize(plan_.events.size());
  for (std::size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& e = plan_.events[i];
    targets_[i] = resolve(e.target);
    if (targets_[i].wires.empty() && targets_[i].queues.empty()) {
      unmatched_.push_back(e.target);
      continue;
    }
    eq_.schedule_at(std::max(e.at, eq_.now()), this, tag_of(i, kPhaseApply));
    // Flap restoration is driven by the toggle chain itself; everything else
    // with a finite end time gets an explicit restore event.
    if (e.until != kTimeInfinity && e.kind != FaultKind::kFlap &&
        e.kind != FaultKind::kLinkDown && e.kind != FaultKind::kLinkUp)
      eq_.schedule_at(e.until, this, tag_of(i, kPhaseRestore));
    if (e.until != kTimeInfinity && e.kind == FaultKind::kLinkDown)
      eq_.schedule_at(e.until, this, tag_of(i, kPhaseRestore));  // auto-repair
  }
}

FaultInjector::Targets FaultInjector::resolve(const std::string& pattern) const {
  const std::string glob = expand_target(pattern);
  Targets out;
  for (Port* p : topo_.all_ports()) {
    const bool whole = glob_match(glob, p->name());
    if (whole || glob_match(glob, p->name() + ".l")) out.wires.push_back(p);
    if (whole || glob_match(glob, p->name() + ".q")) out.queues.push_back(p);
  }
  return out;
}

void FaultInjector::set_links_up(std::size_t i, bool up) {
  for (Port* p : targets_[i].wires) {
    p->set_up(up);
    ++actions_;
  }
}

void FaultInjector::on_event(std::uint64_t tag) {
  const std::size_t i = tag >> 1;
  assert(i < plan_.events.size());
  if ((tag & 1) == kPhaseApply)
    apply(i);
  else
    restore(i);
}

void FaultInjector::apply(std::size_t i) {
  const FaultEvent& e = plan_.events[i];
  Targets& t = targets_[i];
  Saved& s = saved_[i];
  UNO_TRACE_EVENT(trace_, TraceKind::kFaultApply, eq_.now(), i,
                  static_cast<std::uint64_t>(e.kind));
  switch (e.kind) {
    case FaultKind::kLinkDown:
      set_links_up(i, false);
      break;
    case FaultKind::kLinkUp:
      set_links_up(i, true);
      break;
    case FaultKind::kFlap:
      flap_toggle(i);
      break;
    case FaultKind::kLatency:
      s.latencies.clear();
      for (Port* p : t.wires) {
        s.latencies.push_back(p->latency());
        p->set_latency(static_cast<Time>(static_cast<double>(p->latency()) * e.factor) +
                       e.add);
        ++actions_;
      }
      break;
    case FaultKind::kLoss: {
      s.losses.clear();
      std::uint64_t stream = 0xFA000000ULL + i * 4096;
      auto make_model = [&]() -> std::unique_ptr<LossModel> {
        if (e.gilbert) {
          GilbertElliottLoss::Params p = GilbertElliottLoss::table1_setup1();
          p.p_good_to_bad = std::min(1.0, p.p_good_to_bad * e.scale);
          return std::make_unique<GilbertElliottLoss>(p, Rng::stream(seed_, stream++));
        }
        return std::make_unique<BernoulliLoss>(e.rate, Rng::stream(seed_, stream++));
      };
      for (Port* p : t.wires) {
        s.losses.push_back(p->swap_loss_model(make_model()));
        ++actions_;
      }
      break;
    }
    case FaultKind::kEcnStuck:
      for (Port* q : t.queues) {
        q->set_force_ecn(true);
        ++actions_;
      }
      break;
  }
}

void FaultInjector::restore(std::size_t i) {
  const FaultEvent& e = plan_.events[i];
  Targets& t = targets_[i];
  Saved& s = saved_[i];
  UNO_TRACE_EVENT(trace_, TraceKind::kFaultRestore, eq_.now(), i,
                  static_cast<std::uint64_t>(e.kind));
  switch (e.kind) {
    case FaultKind::kLinkDown:
      set_links_up(i, true);
      break;
    case FaultKind::kLatency:
      for (std::size_t j = 0; j < t.wires.size(); ++j) {
        t.wires[j]->set_latency(s.latencies[j]);
        ++actions_;
      }
      break;
    case FaultKind::kLoss:
      for (std::size_t j = 0; j < t.wires.size(); ++j) {
        t.wires[j]->swap_loss_model(std::move(s.losses[j]));
        ++actions_;
      }
      s.losses.clear();
      break;
    case FaultKind::kEcnStuck:
      for (Port* q : t.queues) {
        q->set_force_ecn(false);
        ++actions_;
      }
      break;
    default:
      break;
  }
}

void FaultInjector::flap_toggle(std::size_t i) {
  const FaultEvent& e = plan_.events[i];
  Saved& s = saved_[i];
  const Time now = eq_.now();
  if (now >= e.until) {
    if (s.flap_down) {
      set_links_up(i, true);
      s.flap_down = false;
    }
    return;
  }
  Time next;
  if (!s.flap_down) {
    set_links_up(i, false);
    s.flap_down = true;
    next = now + static_cast<Time>(static_cast<double>(e.period) * e.duty);
  } else {
    set_links_up(i, true);
    s.flap_down = false;
    next = now + static_cast<Time>(static_cast<double>(e.period) * (1.0 - e.duty));
  }
  eq_.schedule_at(std::min(next, e.until), this, tag_of(i, kPhaseApply));
}

}  // namespace uno
