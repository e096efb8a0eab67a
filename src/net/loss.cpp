#include "net/loss.hpp"

#include <cassert>
#include <numeric>

namespace uno {

BurstLoss::BurstLoss(const Params& params, Rng rng) : params_(params), rng_(std::move(rng)) {
  assert(!params_.length_weights.empty());
  const double total = std::accumulate(params_.length_weights.begin(),
                                       params_.length_weights.end(), 0.0);
  double acc = 0;
  for (double w : params_.length_weights) {
    acc += w / total;
    cumulative_.push_back(acc);
  }
}

bool BurstLoss::should_drop(Time) {
  if (burst_remaining_ > 0) {
    --burst_remaining_;
    return true;
  }
  if (!rng_.chance(params_.event_rate)) return false;
  const double u = rng_.uniform();
  int len = 1;
  for (std::size_t i = 0; i < cumulative_.size(); ++i) {
    if (u <= cumulative_[i]) {
      len = static_cast<int>(i) + 1;
      break;
    }
  }
  burst_remaining_ = len - 1;
  return true;
}

BurstLoss::Params BurstLoss::table1_setup1() {
  Params p;
  // Chunk ratios 1 : 0.25 : 0.053 -> burst-length weights; mean burst
  // length = 1.66/1.303 ~ 1.273 losses, so event rate = 5.01e-5 / 1.273.
  p.length_weights = {1.0, 0.25, 0.053};
  p.event_rate = 5.01e-5 / 1.273;
  return p;
}

BurstLoss::Params BurstLoss::table1_setup2() {
  Params p;
  // Ratios 1 : 0.575 : 0.122; mean burst = (1 + 1.15 + 0.366)/1.697 ~ 1.483.
  p.length_weights = {1.0, 0.575, 0.122};
  p.event_rate = 1.22e-5 / 1.483;
  return p;
}

// Calibration targets (paper Table 1): the measured per-packet loss rates
// (5.01e-5 / 1.22e-5) and the relative frequency of 10-packet chunks with
// exactly 1, 2 and 3 losses. The published chunk counts imply strongly
// correlated drops (e.g. Setup 2 sees 2-loss chunks at 57% the frequency of
// 1-loss chunks, ~1e4x above an independent-loss prediction). The parameters
// below were tuned with bench_table1 to land on those ratios.

GilbertElliottLoss::Params GilbertElliottLoss::table1_setup1() {
  Params p;
  p.loss_bad = 0.45;
  p.loss_good = 0.0;
  p.p_bad_to_good = 0.30;  // bad bursts last ~3.3 packets
  // Stationary P(bad) = g2b / (g2b + b2g); per-packet loss = P(bad)*loss_bad.
  // Target 5.01e-5 -> P(bad) = 1.113e-4.
  p.p_good_to_bad = 3.34e-5;
  return p;
}

GilbertElliottLoss::Params GilbertElliottLoss::table1_setup2() {
  Params p;
  p.loss_bad = 0.55;       // more concentrated bursts than Setup 1
  p.loss_good = 0.0;
  p.p_bad_to_good = 0.22;  // longer bad dwell: higher multi-loss fraction
  // Target 1.22e-5 -> P(bad) = 2.218e-5.
  p.p_good_to_bad = 4.88e-6;
  return p;
}

}  // namespace uno
