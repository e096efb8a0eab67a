// Flow-completion-time collection and summarization.
//
// The experiments report mean and 99th-percentile FCT split by flow class
// (intra- vs inter-DC), and Fig. 11 reports *slowdown* — FCT divided by the
// flow's ideal (unloaded) completion time.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.hpp"
#include "transport/flow.hpp"

namespace uno {

struct FctSummary {
  std::size_t count = 0;
  double mean_us = 0;
  double p50_us = 0;
  double p99_us = 0;
  double max_us = 0;
  double mean_slowdown = 0;
  double p99_slowdown = 0;
};

/// The canonical result order: finish time (start + FCT), then flow id.
/// Ids are unique, so the order is total — a pure function of simulation
/// content, identical for every shard count (DESIGN.md §14).
inline bool canonical_before(const FlowResult& a, const FlowResult& b) {
  const Time fa = flow_finish_time(a), fb = flow_finish_time(b);
  return fa != fb ? fa < fb : a.id < b.id;
}

/// FCT summaries over a list of results (Experiment::result().flows). Holds
/// no results itself: the flow records are the run's only per-flow store.
class FctCollector {
 public:
  /// `ideal_fn` computes a flow's unloaded FCT (used for slowdowns); pass
  /// nullptr to skip slowdown reporting.
  using IdealFn = std::function<Time(const FlowResult&)>;
  explicit FctCollector(IdealFn ideal_fn = nullptr) : ideal_fn_(std::move(ideal_fn)) {}

  enum class Class { kAll, kIntra, kInter };
  /// Sums run in list order, so a list in canonical order gives the same
  /// means for every shard count.
  FctSummary summarize(const std::vector<FlowResult>& results, Class cls = Class::kAll) const;
  /// All three classes in one pass over the results, each equal to its
  /// summarize(cls) bit for bit.
  struct Classes {
    FctSummary all, intra, inter;
  };
  Classes summarize_classes(const std::vector<FlowResult>& results) const;
  /// Summary over an arbitrary subset.
  FctSummary summarize_if(const std::vector<FlowResult>& results,
                          const std::function<bool(const FlowResult&)>& pred) const;

  /// Ideal FCT model: store-and-forward pipe of `rate` with base RTT —
  /// size/rate + rtt (the paper's Fig. 1 completion-time model).
  static IdealFn pipe_ideal(Bandwidth rate, Time intra_rtt, Time inter_rtt);

 private:
  IdealFn ideal_fn_;
};

/// p-th percentile (p in [0,100]) of a copy of `values`, interpolating
/// linearly between the two nearest ranks.
double percentile(std::vector<double> values, double p);
/// The same, of values already sorted ascending (no copy, no sort).
double percentile_sorted(const std::vector<double>& sorted, double p);

}  // namespace uno
