// Switch output port: one per directed adjacency of the fabric.
//
// A Port is everything between one device and its neighbour in one
// direction: a drop-tail queue with a line-rate serializer and ECN marking,
// followed by the wire that carries what the serializer sends. Both halves
// share one event handler (tag kService: a serialization finished; tag
// kWireExit: the wire's head arrived) and one route hop, so a route is one
// PacketSink* per port plus the destination host.
//
// Two marking sources are supported, matching §4.1.3 of the paper:
//  * RED on the instantaneous *physical* occupancy (min/max thresholds,
//    linear probability in between) — used by DCTCP/MPRDMA/Gemini setups;
//  * a *phantom queue*: a counter incremented on every enqueue and drained
//    at a configurable fraction of line rate (default 90%), with its own
//    RED thresholds sized to the inter-DC BDP — used by Uno so ECN can
//    signal congestion long before a shallow physical buffer fills.
// When both are enabled a packet is marked if either source marks it.
//
// The wire is local (an in-flight ring with a latency, an up/down state and
// an optional loss model, delivering on this port's event queue) unless the
// port was built with a ChannelLink, which then is its wire across a shard
// seam (net/channel.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/ring.hpp"
#include "net/channel.hpp"
#include "net/loss.hpp"
#include "net/packet.hpp"
#include "obs/trace.hpp"
#include "sim/event.hpp"
#include "sim/rng.hpp"

namespace uno {

/// RED marking thresholds in bytes. Marking probability is 0 below
/// `min_bytes`, 1 above `max_bytes`, linear in between.
struct RedConfig {
  bool enabled = false;
  std::int64_t min_bytes = 0;
  std::int64_t max_bytes = 0;
};

/// Phantom-queue configuration (HULL-style virtual queue).
struct PhantomConfig {
  bool enabled = false;
  double drain_fraction = 0.9;  // of the physical line rate
  RedConfig red;                // thresholds on the *phantom* occupancy
  /// Upper bound on the virtual occupancy; without it a saturated port's
  /// phantom counter grows without limit and takes arbitrarily long to
  /// drain after the overload ends (marking hysteresis). 0 derives
  /// 2 x red.max_bytes.
  std::int64_t cap_bytes = 0;

  std::int64_t effective_cap() const { return cap_bytes > 0 ? cap_bytes : 2 * red.max_bytes; }
};

struct QueueConfig {
  Bandwidth rate = 100 * kGbps;
  std::int64_t capacity_bytes = 1 << 20;  // 1 MiB/port (paper default)
  RedConfig red;        // physical-occupancy marking
  PhantomConfig phantom;
  /// Packet trimming (htsim/NDP-style): instead of dropping an overflowing
  /// data packet, truncate it to its header and forward it, giving the
  /// sender a per-packet loss notification within one RTT.
  bool trim = false;
  /// Separate strict-priority queue for control traffic (ACKs/NACKs) and
  /// trimmed headers, as in NDP: feedback jumps ahead of queued data.
  /// Sized for ~4k control packets so a whole window's worth of trims from
  /// an incast burst survives (control drops cost an expiry round trip).
  std::int64_t control_capacity_bytes = 256 << 10;

  /// Annulus-style near-source QCN (see §3.2/[59] and the paper's footnote
  /// leaving it as future work): when a *source-side* port exceeds the
  /// threshold, an early congestion notification is sent straight back to
  /// the packet's sender, bypassing the long forward loop.
  struct Qcn {
    bool enabled = false;
    std::int64_t threshold_bytes = 150'000;
    Time min_interval = 10 * kMicrosecond;  // per-port notification pacing
  } qcn;
};

/// Where a source-side port sends its near-source congestion notifications
/// (the experiment's per-DC QcnDispatcher).
class QcnSink {
 public:
  virtual void notify(const Packet& p) = 0;

 protected:
  ~QcnSink() = default;
};

class Port final : public PacketSink, public EventHandler {
 public:
  /// A port with a local wire of `latency`. `cfg` is shared, not copied: it
  /// must outlive the port (a topology keeps one per port class). Queued
  /// and in-flight packets are parked in blocks of `packets` (the heap when
  /// null); the pool must outlive the port.
  Port(EventQueue& eq, std::string name, const QueueConfig& cfg, Time latency,
       Rng rng = Rng(7), SlabPool* packets = nullptr);
  /// A port whose wire is `channel`: the serializer hands each packet to the
  /// channel's ingress.
  Port(EventQueue& eq, std::string name, const QueueConfig& cfg,
       std::unique_ptr<ChannelLink> channel, Rng rng = Rng(7), SlabPool* packets = nullptr);
  // The config is held by pointer; a temporary would dangle.
  Port(EventQueue&, std::string, QueueConfig&&, Time, Rng = Rng(7), SlabPool* = nullptr) = delete;
  Port(EventQueue&, std::string, QueueConfig&&, std::unique_ptr<ChannelLink>, Rng = Rng(7),
       SlabPool* = nullptr) = delete;
  ~Port() override;
  Port(const Port&) = delete;
  Port& operator=(const Port&) = delete;

  void receive(Packet&& p) override;
  void receive_parked(Packet* p, SlabPool* pool) override;
  void on_event(std::uint64_t tag) override;

  const std::string& name() const override { return name_; }

  // --- queue side -------------------------------------------------------------
  std::int64_t occupancy() const { return occupancy_; }
  /// Packets waiting in both lanes (the one in service included).
  std::size_t queued() const { return q_.size() + ctrl_q_.size(); }

  /// Phantom occupancy as of `now` (lazily drained).
  std::int64_t phantom_occupancy(Time now) const;

  std::uint64_t drops() const { return drops_; }  // queue-side drops only
  std::uint64_t trims() const { return trims_; }
  std::uint64_t forwarded() const { return forwarded_; }
  std::uint64_t ecn_marked() const { return ecn_marked_; }
  std::int64_t max_occupancy() const { return max_occupancy_; }
  std::uint64_t bytes_forwarded() const { return bytes_forwarded_; }

  /// Installed by the experiment when the Annulus extension is on: notified
  /// (rate-limited) with the offending packet when qcn.threshold is crossed.
  void set_qcn(QcnSink* sink) { qcn_ = sink; }

  /// Gray-failure injection: a broken port that marks every ECN-capable
  /// packet CE regardless of occupancy (fault-plan `ecn-stuck`).
  void set_force_ecn(bool forced) { force_ecn_ = forced; }
  bool force_ecn() const { return force_ecn_; }

  /// Attach this port to a flight recorder (obs/trace.hpp).
  void set_trace(TraceContext tc) { trace_ = tc; }

  // --- wire side ----------------------------------------------------------------
  // Latency, up/down and loss act on the channel when the wire is one.
  Time latency() const { return channel_ ? channel_->latency() : latency_; }
  void set_latency(Time latency);
  /// Take the wire down or back up. A local wire going down drops
  /// everything: packets entering it are dropped at ingress, and packets
  /// already in flight are flushed and counted in wire_drops() — a severed
  /// wire does not deliver its tail. A channel drops at ingress only.
  void set_up(bool up);
  bool up() const { return channel_ ? channel_->up() : up_; }

  /// Attach a stochastic loss model (evaluated per packet at wire ingress).
  void set_loss_model(std::unique_ptr<LossModel> model) { swap_loss_model(std::move(model)); }
  /// Replace the loss model, returning the displaced one (fault injection
  /// restores the original after a transient loss spike).
  std::unique_ptr<LossModel> swap_loss_model(std::unique_ptr<LossModel> model);
  const LossModel* loss_model() const {
    return channel_ ? channel_->loss_model() : loss_.get();
  }

  /// Packets dropped by the wire (down or lossy), channel included.
  std::uint64_t wire_drops() const { return channel_ ? channel_->dropped() : dropped_; }
  /// Packets propagating on the local wire right now (a channel counts its
  /// own).
  std::size_t in_flight() const { return inflight_.size(); }
  /// Local-wire deliveries; a channel counts its own.
  std::uint64_t delivered() const { return delivered_; }
  /// Local-wire deliveries that rode along in another packet's event because
  /// they shared its arrival instant (see the drain loop in wire_exit).
  std::uint64_t coalesced_deliveries() const { return coalesced_; }
  /// The seam channel this port's wire is, or null for a local wire.
  ChannelLink* channel() const { return channel_.get(); }

 private:
  enum : std::uint64_t { kService = 0, kWireExit = 1 };  // event tags

  /// Marking decision for a data packet. When it marks, *phantom_source is
  /// set iff the phantom queue's RED probability dominated the physical one
  /// (i.e. the phantom queue is what caused the mark).
  bool should_mark(std::int64_t occupancy_after, Time now, bool* phantom_source);
  void start_service();
  /// A serialization finished: pop the head and put it on the wire.
  void depart();
  /// The head of the local wire arrived: deliver it and every packet due at
  /// the same instant to their next hops.
  void wire_exit();
  /// Release every in-flight packet's block and empty the wire.
  void flush_wire();

  // First, so they pack into EventHandler's tail padding.
  bool busy_ = false;
  bool serving_ctrl_ = false;  // which lane the in-progress serialization uses
  bool force_ecn_ = false;
  bool up_ = true;  // local wire
  EventQueue& eq_;
  const QueueConfig* cfg_;
  SlabPool* packets_;
  /// Exact picoseconds-per-byte when 8*kSecond divides the rate evenly
  /// (every realistic rate: 10G=800, 100G=80, 400G=20, 1.6T=5), else 0 and
  /// service falls back to the 128-bit serialization_time. Avoids a 128-bit
  /// division per served packet on the hot path.
  Time ser_ps_per_byte_ = 0;

  PodRing<Packet*> q_;       // data packets
  PodRing<Packet*> ctrl_q_;  // control + trimmed headers (strict priority)
  std::int64_t occupancy_ = 0;       // data bytes queued
  std::int64_t ctrl_occupancy_ = 0;  // control bytes queued

  // Kept beside the hot fields above: every enqueue tests trace_.tracer and
  // the depth decimation deadline, and parking them at the end of the class
  // costs an extra cache line per packet.
  TraceContext trace_;
  Time trace_depth_next_ = 0;  // next allowed kQueueDepth sample

  // Phantom queue state: drained lazily whenever observed.
  mutable std::int64_t phantom_bytes_ = 0;
  mutable Time phantom_last_ = 0;

  // The local wire.
  struct InFlight {
    Time due = 0;
    Packet* p = nullptr;
  };
  PodRing<InFlight> inflight_;
  Time latency_ = 0;
  std::unique_ptr<LossModel> loss_;
  std::unique_ptr<ChannelLink> channel_;  // the wire, when it crosses a seam

  std::uint64_t drops_ = 0;
  std::uint64_t trims_ = 0;
  std::uint64_t forwarded_ = 0;
  std::uint64_t bytes_forwarded_ = 0;
  std::uint64_t ecn_marked_ = 0;
  std::int64_t max_occupancy_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;  // by the local wire
  std::uint64_t coalesced_ = 0;
  QcnSink* qcn_ = nullptr;
  Time last_qcn_ = -1;
  Rng rng_;
  std::string name_;
};

}  // namespace uno
