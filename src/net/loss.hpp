// Stochastic loss models for WAN links.
//
// §2.4 of the paper measures inter-region RDMA loss between Azure
// datacenters and finds *correlated* drops: the probability of losing 2-3
// packets inside a 10-packet chunk is far above the independent-loss
// prediction. We reproduce that with a two-state Gilbert–Elliott chain and
// calibrate it against the published Table 1 rates in bench_table1.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace uno {

class LossModel {
 public:
  virtual ~LossModel() = default;
  /// Returns true if the packet crossing the link now should be dropped.
  virtual bool should_drop(Time now) = 0;
};

/// Independent per-packet loss.
class BernoulliLoss final : public LossModel {
 public:
  BernoulliLoss(double p, Rng rng) : p_(p), rng_(std::move(rng)) {}
  bool should_drop(Time) override { return rng_.chance(p_); }

 private:
  double p_;
  Rng rng_;
};

/// Two-state Gilbert–Elliott loss: a mostly-lossless Good state and a bursty
/// Bad state. Transitions are evaluated per packet.
class GilbertElliottLoss final : public LossModel {
 public:
  struct Params {
    double p_good_to_bad = 1e-5;  // per-packet transition probability
    double p_bad_to_good = 0.25;  // bad bursts last ~1/p packets
    double loss_good = 0.0;       // loss probability while Good
    double loss_bad = 0.5;        // loss probability while Bad
  };

  GilbertElliottLoss(const Params& params, Rng rng) : params_(params), rng_(std::move(rng)) {}

  bool should_drop(Time) override {
    if (bad_) {
      if (rng_.chance(params_.p_bad_to_good)) bad_ = false;
    } else {
      if (rng_.chance(params_.p_good_to_bad)) bad_ = true;
    }
    const double p = bad_ ? params_.loss_bad : params_.loss_good;
    return rng_.chance(p);
  }

  bool in_bad_state() const { return bad_; }

  /// Parameters fit to the paper's Table 1 "Setup 1" (65 ms RTT,
  /// avg loss 5.01e-5, strong burst correlation).
  static Params table1_setup1();
  /// Parameters fit to Table 1 "Setup 2" (33 ms RTT, avg loss 1.22e-5).
  static Params table1_setup2();

 private:
  Params params_;
  Rng rng_;
  bool bad_ = false;
};

/// Burst loss with an explicit burst-length distribution.
///
/// The Gilbert–Elliott chain has a geometric burst-length tail, but the
/// paper's Table 1 shows a *sub-geometric* tail (chunks with 2 losses are
/// ~25-57% as common as 1-loss chunks, while 3-loss chunks drop to 5-12%).
/// This model draws, at each loss event, a burst length from a measured
/// distribution and drops that many consecutive packets — so 10-packet
/// chunk statistics reproduce the published ratios directly.
class BurstLoss final : public LossModel {
 public:
  struct Params {
    double event_rate = 0;               // loss-burst starts per packet
    std::vector<double> length_weights;  // weight of burst length 1, 2, 3...
  };

  BurstLoss(const Params& params, Rng rng);

  bool should_drop(Time) override;

  /// Calibrated to Table 1 Setup 1: avg loss 5.01e-5, chunk ratios
  /// P(2)/P(1) = 0.25, P(>=3)/P(1) = 0.053.
  static Params table1_setup1();
  /// Calibrated to Table 1 Setup 2: avg loss 1.22e-5, ratios 0.575 / 0.122.
  static Params table1_setup2();

 private:
  Params params_;
  Rng rng_;
  std::vector<double> cumulative_;  // normalized CDF over lengths
  int burst_remaining_ = 0;
};

}  // namespace uno
