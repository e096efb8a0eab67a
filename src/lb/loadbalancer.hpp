// Load-balancing strategies: how a sender assigns ECMP entropies (path ids)
// to outgoing packets.
//
//  * EcmpLb   — one hash-derived path for the whole flow (baseline).
//  * RpsLb    — random packet spraying [Dixit et al.].
//  * PlbLb    — PLB [Qureshi et al.]: single path, repath after consecutive
//               congested (ECN-heavy) rounds.
//  * UnoLb    — the paper's Algorithm 2: n concurrent subflows used
//               round-robin; on NACK/timeout (at most once per base RTT) the
//               most stale subflow is re-routed onto a path that has
//               recently received ACKs.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/slab.hpp"
#include "obs/trace.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace uno {

class LoadBalancer {
 public:
  virtual ~LoadBalancer() = default;

  /// Entropy (path index, < num_paths) for the next outgoing packet.
  /// `seq` lets deterministic strategies key off the packet number.
  virtual std::uint16_t pick(std::uint64_t seq) = 0;

  /// Feedback hooks (default: ignored).
  virtual void on_ack(std::uint16_t entropy, bool ecn, Time now) {
    (void)entropy, (void)ecn, (void)now;
  }
  virtual void on_nack(std::uint16_t entropy, Time now) { (void)entropy, (void)now; }
  virtual void on_timeout(Time now) { (void)now; }

  virtual const char* name() const = 0;

  /// Attach to a flight recorder. Path-changing strategies (UnoLb, PlbLb)
  /// emit reroute/repath instants under TraceCategory::kLb.
  void set_trace(TraceContext tc) { trace_ = tc; }

 protected:
  TraceContext trace_;
};

class EcmpLb final : public LoadBalancer {
 public:
  EcmpLb(std::uint64_t flow_id, std::uint16_t num_paths);
  std::uint16_t pick(std::uint64_t) override { return path_; }
  const char* name() const override { return "ecmp"; }

 private:
  std::uint16_t path_;
};

class RpsLb final : public LoadBalancer {
 public:
  RpsLb(std::uint16_t num_paths, Rng rng) : num_paths_(num_paths), rng_(std::move(rng)) {}
  std::uint16_t pick(std::uint64_t) override {
    return static_cast<std::uint16_t>(rng_.uniform_below(num_paths_));
  }
  const char* name() const override { return "rps"; }

 private:
  std::uint16_t num_paths_;
  Rng rng_;
};

class PlbLb final : public LoadBalancer {
 public:
  struct Params {
    double ecn_fraction_threshold = 0.5;  // a round is "congested" above this
    int congested_rounds_to_repath = 2;
    Time round_duration = 0;  // set to the flow's base RTT
  };

  PlbLb(const Params& params, std::uint64_t flow_id, std::uint16_t num_paths, Rng rng);

  std::uint16_t pick(std::uint64_t) override { return path_; }
  void on_ack(std::uint16_t entropy, bool ecn, Time now) override;
  void on_timeout(Time now) override;
  const char* name() const override { return "plb"; }

  std::uint16_t current_path() const { return path_; }
  std::uint64_t repaths() const { return repaths_; }

 private:
  void end_round(Time now);
  void repath(Time now);

  Params params_;
  std::uint16_t num_paths_;
  Rng rng_;
  std::uint16_t path_;
  Time round_start_ = 0;
  std::uint64_t acked_in_round_ = 0;
  std::uint64_t marked_in_round_ = 0;
  int congested_rounds_ = 0;
  std::uint64_t repaths_ = 0;
};

/// REPS [Bonato et al., cited as [16]]: Recycled Entropy Packet Spraying.
/// Entropies whose packets were ACKed without congestion marks are
/// "recycled" into a cache and reused (they are proven-good paths); when
/// the cache is empty the sender sprays fresh random entropies. Marked or
/// NACKed entropies are simply not recycled, so load drains away from
/// congested/failed paths packet by packet.
class RepsLb final : public LoadBalancer {
 public:
  RepsLb(std::uint16_t num_paths, Rng rng, std::size_t cache_limit = 64);

  std::uint16_t pick(std::uint64_t seq) override;
  void on_ack(std::uint16_t entropy, bool ecn, Time now) override;
  const char* name() const override { return "reps"; }

  std::size_t cached() const { return cache_.size(); }
  std::uint64_t fresh_picks() const { return fresh_picks_; }
  std::uint64_t recycled_picks() const { return recycled_picks_; }

 private:
  std::uint16_t num_paths_;
  Rng rng_;
  std::size_t cache_limit_;
  std::vector<std::uint16_t> cache_;  // LIFO of proven-good entropies
  std::uint64_t fresh_picks_ = 0;
  std::uint64_t recycled_picks_ = 0;
};

class UnoLb final : public LoadBalancer {
 public:
  struct Params {
    int num_subflows = 8;
    Time base_rtt = 0;        // reroute rate limit (Algorithm 2 line 6)
    Time freshness_window = 0;  // "recently received ACKs"; default 2*base_rtt
  };

  /// With a `pool`, the per-subflow and per-path arrays are drawn from that
  /// slab pool (and returned to it on destruction) instead of the heap.
  UnoLb(const Params& params, std::uint16_t num_paths, Rng rng, SlabPool* pool = nullptr);

  std::uint16_t pick(std::uint64_t seq) override;
  void on_ack(std::uint16_t entropy, bool ecn, Time now) override;
  void on_nack(std::uint16_t entropy, Time now) override;
  void on_timeout(Time now) override;
  const char* name() const override { return "unolb"; }

  int num_subflows() const { return static_cast<int>(subflow_entropy_.size()); }
  std::uint16_t subflow_entropy(int i) const { return subflow_entropy_[i]; }
  std::uint64_t reroutes() const { return reroutes_; }

 private:
  /// Replace the path of the subflow that owned `entropy` (or the stalest
  /// subflow on a timeout) with a path that saw an ACK recently.
  void reroute(std::uint16_t bad_entropy, Time now);

  Params params_;
  std::uint16_t num_paths_;
  Rng rng_;
  SlabVec<std::uint16_t> subflow_entropy_;  // subflow slot -> path id
  SlabVec<Time> last_ack_;                  // per path id
  int next_subflow_ = 0;
  Time last_reroute_ = -1;
  std::uint64_t reroutes_ = 0;
};

}  // namespace uno
