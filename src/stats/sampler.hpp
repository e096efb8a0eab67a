// Periodic time-series sampling of queues and flow send rates.
//
// Figures 3, 4 and 8 plot queue occupancy and per-flow rate over time;
// these samplers poll the relevant objects on a fixed period and retain
// (time, value) series for reporting and for fairness metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/port.hpp"
#include "sim/event.hpp"
#include "transport/flow.hpp"

namespace uno {

struct TimeSeries {
  std::string label;
  std::vector<Time> t;
  std::vector<double> v;

  void add(Time time, double value) {
    t.push_back(time);
    v.push_back(value);
  }
  std::size_t size() const { return v.size(); }
  double max() const;
  double mean() const;
};

/// Samples physical (and, when enabled, phantom) occupancy of port queues.
class QueueSampler final : public EventHandler {
 public:
  QueueSampler(EventQueue& eq, Time period) : eq_(eq), period_(period) {}

  void watch(Port* q);
  void start();
  void stop() { running_ = false; }
  void on_event(std::uint64_t tag) override;

  const TimeSeries& physical(std::size_t i) const { return physical_[i]; }
  const TimeSeries& phantom(std::size_t i) const { return phantom_[i]; }
  std::size_t num_watched() const { return queues_.size(); }

 private:
  EventQueue& eq_;
  Time period_;
  bool running_ = false;
  std::vector<Port*> queues_;
  std::vector<TimeSeries> physical_;
  std::vector<TimeSeries> phantom_;
};

/// Samples per-flow goodput: bytes acked per period, reported in Gbps.
class RateSampler final : public EventHandler {
 public:
  RateSampler(EventQueue& eq, Time period) : eq_(eq), period_(period) {}

  void watch(const FlowSender* flow, std::string label);
  void start();
  void stop() { running_ = false; }
  void on_event(std::uint64_t tag) override;

  std::size_t num_watched() const { return flows_.size(); }
  const TimeSeries& series(std::size_t i) const { return series_[i]; }

  /// Jain fairness index over the most recent sample of every flow.
  double jain_latest() const;
  /// First time after which the Jain index stays >= threshold until each
  /// flow finishes (or the trace ends); kTimeInfinity if never reached.
  Time convergence_time(double jain_threshold = 0.95) const;

 private:
  EventQueue& eq_;
  Time period_;
  bool running_ = false;
  std::vector<const FlowSender*> flows_;
  std::vector<std::uint64_t> last_bytes_;
  std::vector<TimeSeries> series_;
};

/// Samples each flow's congestion window (Fig. 8's top row traces cwnd
/// evolution under incast).
class CwndSampler final : public EventHandler {
 public:
  CwndSampler(EventQueue& eq, Time period) : eq_(eq), period_(period) {}

  void watch(const FlowSender* flow, std::string label);
  void start();
  void stop() { running_ = false; }
  void on_event(std::uint64_t tag) override;

  std::size_t num_watched() const { return flows_.size(); }
  const TimeSeries& series(std::size_t i) const { return series_[i]; }

 private:
  EventQueue& eq_;
  Time period_;
  bool running_ = false;
  std::vector<const FlowSender*> flows_;
  std::vector<TimeSeries> series_;
};

/// Jain fairness index of a rate vector: (sum x)^2 / (n * sum x^2) in (0,1].
double jain_index(const std::vector<double>& rates);

}  // namespace uno
