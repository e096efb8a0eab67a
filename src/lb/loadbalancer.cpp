#include "lb/loadbalancer.hpp"

#include <algorithm>
#include <cassert>

namespace uno {

namespace {
/// splitmix64 finalizer — cheap stand-in for a switch's ECMP hash.
std::uint64_t mix(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}
}  // namespace

EcmpLb::EcmpLb(std::uint64_t flow_id, std::uint16_t num_paths)
    : path_(static_cast<std::uint16_t>(mix(flow_id) % num_paths)) {}

PlbLb::PlbLb(const Params& params, std::uint64_t flow_id, std::uint16_t num_paths, Rng rng)
    : params_(params),
      num_paths_(num_paths),
      rng_(std::move(rng)),
      path_(static_cast<std::uint16_t>(mix(flow_id) % num_paths)) {
  assert(params_.round_duration > 0);
}

void PlbLb::on_ack(std::uint16_t, bool ecn, Time now) {
  if (round_start_ == 0) round_start_ = now;
  ++acked_in_round_;
  if (ecn) ++marked_in_round_;
  if (now - round_start_ >= params_.round_duration) end_round(now);
}

void PlbLb::end_round(Time now) {
  const double frac = acked_in_round_ == 0
                          ? 0.0
                          : static_cast<double>(marked_in_round_) /
                                static_cast<double>(acked_in_round_);
  if (frac >= params_.ecn_fraction_threshold) {
    if (++congested_rounds_ >= params_.congested_rounds_to_repath) {
      repath(now);
      congested_rounds_ = 0;
    }
  } else {
    congested_rounds_ = 0;
  }
  round_start_ = now;
  acked_in_round_ = 0;
  marked_in_round_ = 0;
}

void PlbLb::on_timeout(Time now) {
  // PLB repaths immediately on retransmission timeout.
  repath(now);
  congested_rounds_ = 0;
}

void PlbLb::repath(Time now) {
  if (num_paths_ <= 1) return;
  std::uint16_t next = path_;
  while (next == path_) next = static_cast<std::uint16_t>(rng_.uniform_below(num_paths_));
  UNO_TRACE_EVENT(trace_, TraceKind::kRepath, now, path_, next);
  path_ = next;
  ++repaths_;
}

RepsLb::RepsLb(std::uint16_t num_paths, Rng rng, std::size_t cache_limit)
    : num_paths_(num_paths), rng_(std::move(rng)), cache_limit_(cache_limit) {
  cache_.reserve(cache_limit_);
}

std::uint16_t RepsLb::pick(std::uint64_t) {
  if (!cache_.empty()) {
    const std::uint16_t e = cache_.back();
    cache_.pop_back();
    ++recycled_picks_;
    return e;
  }
  ++fresh_picks_;
  return static_cast<std::uint16_t>(rng_.uniform_below(num_paths_));
}

void RepsLb::on_ack(std::uint16_t entropy, bool ecn, Time) {
  // Only un-marked deliveries prove a path good; congested or lossy paths
  // age out of circulation by never being recycled.
  if (!ecn && cache_.size() < cache_limit_) cache_.push_back(entropy);
}

UnoLb::UnoLb(const Params& params, std::uint16_t num_paths, Rng rng, SlabPool* pool)
    : params_(params), num_paths_(num_paths), rng_(std::move(rng)) {
  assert(params_.base_rtt > 0);
  if (params_.freshness_window == 0) params_.freshness_window = 2 * params_.base_rtt;
  const int n = std::min<int>(params_.num_subflows, num_paths_);
  subflow_entropy_.assign(static_cast<std::size_t>(std::max(n, 1)), 0, pool);
  // Initial assignment: consecutive path ids. The topology arranges inter-DC
  // path sets so consecutive ids cycle over distinct border links, giving a
  // block's packets maximal WAN-link diversity from the start.
  for (std::size_t i = 0; i < subflow_entropy_.size(); ++i)
    subflow_entropy_[i] = static_cast<std::uint16_t>(i % num_paths_);
  last_ack_.assign(num_paths_, -1, pool);
}

std::uint16_t UnoLb::pick(std::uint64_t) {
  const std::uint16_t e = subflow_entropy_[next_subflow_];
  next_subflow_ = (next_subflow_ + 1) % static_cast<int>(subflow_entropy_.size());
  return e;
}

void UnoLb::on_ack(std::uint16_t entropy, bool, Time now) {
  if (entropy < last_ack_.size()) last_ack_[entropy] = now;
}

void UnoLb::on_nack(std::uint16_t entropy, Time now) { reroute(entropy, now); }

void UnoLb::on_timeout(Time now) {
  // No specific entropy to blame: evict the subflow whose path is stalest.
  std::uint16_t worst = subflow_entropy_[0];
  Time worst_seen = last_ack_[worst];
  for (std::uint16_t e : subflow_entropy_) {
    if (last_ack_[e] < worst_seen) {
      worst = e;
      worst_seen = last_ack_[e];
    }
  }
  reroute(worst, now);
}

void UnoLb::reroute(std::uint16_t bad_entropy, Time now) {
  if (now - last_reroute_ <= params_.base_rtt) return;  // Algorithm 2 line 6
  if (num_paths_ <= 1) return;

  // Find which subflow currently owns the bad path; if none does (stale
  // feedback), re-route the stalest subflow instead.
  int victim = -1;
  for (std::size_t i = 0; i < subflow_entropy_.size(); ++i)
    if (subflow_entropy_[i] == bad_entropy) {
      victim = static_cast<int>(i);
      break;
    }
  if (victim < 0) {
    Time worst_seen = kTimeInfinity;
    for (std::size_t i = 0; i < subflow_entropy_.size(); ++i)
      if (last_ack_[subflow_entropy_[i]] < worst_seen) {
        worst_seen = last_ack_[subflow_entropy_[i]];
        victim = static_cast<int>(i);
      }
  }

  // "Randomly selecting a subflow that has recently received ACKs": sample
  // candidate paths, preferring ones with a fresh ACK; fall back to any
  // path not currently in use.
  auto in_use = [&](std::uint16_t e) {
    return std::find(subflow_entropy_.begin(), subflow_entropy_.end(), e) !=
           subflow_entropy_.end();
  };
  std::uint16_t chosen = bad_entropy;
  for (int attempt = 0; attempt < 16; ++attempt) {
    const auto cand = static_cast<std::uint16_t>(rng_.uniform_below(num_paths_));
    if (cand == bad_entropy || in_use(cand)) continue;
    if (last_ack_[cand] >= 0 && now - last_ack_[cand] <= params_.freshness_window) {
      chosen = cand;
      break;
    }
    if (chosen == bad_entropy) chosen = cand;  // fallback: first unused path
  }
  if (chosen == bad_entropy) return;  // nowhere better to go

  subflow_entropy_[victim] = chosen;
  last_reroute_ = now;
  ++reroutes_;
  UNO_TRACE_EVENT(trace_, TraceKind::kReroute, now, bad_entropy, chosen);
}

}  // namespace uno
