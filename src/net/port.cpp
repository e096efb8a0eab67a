#include "net/port.hpp"

#include <algorithm>
#include <cassert>

namespace uno {

namespace {
/// Linear RED probability for an instantaneous occupancy.
double red_probability(const RedConfig& red, std::int64_t occ) {
  if (occ <= red.min_bytes) return 0.0;
  if (occ >= red.max_bytes) return 1.0;
  return static_cast<double>(occ - red.min_bytes) /
         static_cast<double>(red.max_bytes - red.min_bytes);
}
}  // namespace

Port::Port(EventQueue& eq, std::string name, const QueueConfig& cfg, Time latency, Rng rng,
           SlabPool* packets)
    : eq_(eq),
      cfg_(&cfg),
      packets_(packets),
      latency_(latency),
      rng_(std::move(rng)),
      name_(std::move(name)) {
  assert(cfg_->rate > 0);
  assert(cfg_->capacity_bytes > 0);
  if ((8 * kSecond) % cfg_->rate == 0) ser_ps_per_byte_ = (8 * kSecond) / cfg_->rate;
}

Port::Port(EventQueue& eq, std::string name, const QueueConfig& cfg,
           std::unique_ptr<ChannelLink> channel, Rng rng, SlabPool* packets)
    : Port(eq, std::move(name), cfg, 0, std::move(rng), packets) {
  channel_ = std::move(channel);
}

Port::~Port() {
  for (PodRing<Packet*>* lane : {&q_, &ctrl_q_})
    for (std::size_t i = 0; i < lane->size(); ++i) release_packet(packets_, (*lane)[i]);
  flush_wire();
}

// --- queue side ---------------------------------------------------------------

std::int64_t Port::phantom_occupancy(Time now) const {
  const PhantomConfig& ph = cfg_->phantom;
  if (!ph.enabled) return 0;
  if (now > phantom_last_) {
    const auto rate =
        static_cast<Bandwidth>(static_cast<double>(cfg_->rate) * ph.drain_fraction);
    const std::int64_t drained = bytes_in_interval(now - phantom_last_, rate);
    phantom_bytes_ = std::max<std::int64_t>(0, phantom_bytes_ - drained);
    phantom_last_ = now;
  }
  return phantom_bytes_;
}

bool Port::should_mark(std::int64_t occupancy_after, Time now, bool* phantom_source) {
  *phantom_source = false;
  if (force_ecn_) return true;  // gray failure: marking stuck on
  double p = 0.0;
  if (cfg_->red.enabled) p = red_probability(cfg_->red, occupancy_after);
  if (cfg_->phantom.enabled) {
    // Update the lazily-drained counter, then account for this packet.
    const std::int64_t phantom = phantom_occupancy(now);
    const double pp = red_probability(cfg_->phantom.red, phantom);
    if (pp >= p && pp > 0.0) {
      p = pp;
      *phantom_source = true;
    }
  }
  return p > 0.0 && rng_.chance(p);
}

void Port::receive(Packet&& p) { receive_parked(park_packet(packets_, std::move(p)), packets_); }

void Port::receive_parked(Packet* block, SlabPool* pool) {
  block = adopt_packet(block, pool, packets_);
  Packet& p = *block;
  const QueueConfig& cfg = *cfg_;
  const Time now = eq_.now();
  const bool is_data = p.type == PacketType::kData && !p.trimmed;

  if (!is_data) {
    // Control traffic (ACK/NACK/trimmed headers): strict-priority lane with
    // its own small buffer.
    if (ctrl_occupancy_ + p.size > cfg.control_capacity_bytes) {
      ++drops_;
      UNO_TRACE_EVENT(trace_, TraceKind::kQueueDrop, now, p.flow_id, p.seq);
      release_packet(packets_, block);
      return;
    }
    ctrl_occupancy_ += p.size;
    ctrl_q_.push_back(block);
    if (!busy_) start_service();
    return;
  }

  if (occupancy_ + p.size > cfg.capacity_bytes) {
    if (cfg.trim && ctrl_occupancy_ + kTrimSize <= cfg.control_capacity_bytes) {
      // NDP-style trimming: keep the header, drop the payload, and let the
      // header overtake the queued data on the priority lane.
      p.size = kTrimSize;
      p.trimmed = true;
      p.payload = nullptr;  // the payload is exactly what trimming discards
      ++trims_;
      UNO_TRACE_EVENT(trace_, TraceKind::kQueueTrim, now, p.flow_id, p.seq);
      ctrl_occupancy_ += p.size;
      ctrl_q_.push_back(block);
      if (!busy_) start_service();
      return;
    }
    ++drops_;
    UNO_TRACE_EVENT(trace_, TraceKind::kQueueDrop, now, p.flow_id, p.seq);
    release_packet(packets_, block);
    return;
  }
  // The phantom counter tracks *arrivals* at the port, including packets
  // that fit the physical buffer, and is charged before the marking
  // decision so a burst marks its own tail.
  if (cfg.phantom.enabled) {
    phantom_occupancy(now);  // lazy drain
    phantom_bytes_ =
        std::min<std::int64_t>(phantom_bytes_ + p.size, cfg.phantom.effective_cap());
  }
  bool phantom_mark = false;
  if (p.ecn_capable && should_mark(occupancy_ + p.size, now, &phantom_mark)) {
    p.ecn_ce = true;
    ++ecn_marked_;
    UNO_TRACE_EVENT(trace_, TraceKind::kEcnMark, now, p.flow_id, phantom_mark ? 1 : 0);
  }
  if (cfg.qcn.enabled && qcn_ != nullptr && occupancy_ + p.size > cfg.qcn.threshold_bytes &&
      (last_qcn_ < 0 || now - last_qcn_ >= cfg.qcn.min_interval)) {
    last_qcn_ = now;
    UNO_TRACE_EVENT(trace_, TraceKind::kQcnNotify, now, p.flow_id, occupancy_ + p.size);
    qcn_->notify(p);
  }
  occupancy_ += p.size;
  max_occupancy_ = std::max(max_occupancy_, occupancy_);
#if UNO_TRACE_COMPILED
  // Depth samples are decimated in simulated time: one counter point per
  // depth_sample_interval per port bounds the trace volume (an enqueue-rate
  // sample stream would dominate every other category combined and blow the
  // <3% tracing overhead budget on cache misses alone).
  if (trace_.tracer != nullptr && now >= trace_depth_next_) {
    trace_depth_next_ = now + trace_.tracer->options().depth_sample_interval;
    UNO_TRACE_EVENT(trace_, TraceKind::kQueueDepth, now, occupancy_,
                    cfg.phantom.enabled ? phantom_bytes_ : 0);
  }
#endif
  q_.push_back(block);
  if (!busy_) start_service();
}

void Port::start_service() {
  assert(!q_.empty() || !ctrl_q_.empty());
  busy_ = true;
  serving_ctrl_ = !ctrl_q_.empty();
  const Packet& head = *(serving_ctrl_ ? ctrl_q_.front() : q_.front());
  const Time st = ser_ps_per_byte_ ? head.size * ser_ps_per_byte_
                                   : serialization_time(head.size, cfg_->rate);
  eq_.schedule_in(st, this, kService);
}

void Port::on_event(std::uint64_t tag) {
  if (tag == kService)
    depart();
  else
    wire_exit();
}

void Port::depart() {
  assert(busy_ && (!q_.empty() || !ctrl_q_.empty()));
  // Dequeue from the lane whose head we committed to serializing; a control
  // packet arriving *during* a data packet's serialization does not preempt
  // it, it just goes first on the next service round. busy_ stays set until
  // after the pop so a re-entrant receive() cannot start service while the
  // stale head still occupies the lane.
  PodRing<Packet*>& lane = serving_ctrl_ ? ctrl_q_ : q_;
  Packet* head = lane.front();
  (serving_ctrl_ ? ctrl_occupancy_ : occupancy_) -= head->size;
  ++forwarded_;
  bytes_forwarded_ += head->size;
  // The next service is scheduled before the head reaches the wire: the
  // event-seq order (next service, then wire exit) is what same-timestamp
  // ties dispatch in.
  lane.pop_front();
  busy_ = false;
  if (!q_.empty() || !ctrl_q_.empty()) start_service();

  if (channel_) {
    channel_->receive(std::move(*head));
    release_packet(packets_, head);
    return;
  }
  if (!up_ || (loss_ && loss_->should_drop(eq_.now()))) {
    ++dropped_;
    release_packet(packets_, head);
    return;  // the transport's RTO / EC layer recovers the loss
  }
  const Time exit = eq_.now() + latency_;
  inflight_.emplace_back(exit, head);
  if (inflight_.size() == 1) eq_.schedule_at(exit, this, kWireExit);
}

// --- wire side ----------------------------------------------------------------

void Port::wire_exit() {
  // A wire-down flush can orphan exit events: fire with nothing in flight,
  // or before the (later-arriving) new head is actually due.
  if (inflight_.empty() || inflight_.front().due > eq_.now()) return;
  // Drain every packet sharing this arrival instant in one event: one
  // schedule_at per *distinct* due instead of one per packet. Behind the
  // serializer consecutive dues are distinct, but bursts crossing a latency
  // change arrive in shared instants and coalesce here. Strictly-equal dues
  // only — a head that is *overdue* (its due passed while an earlier head was
  // still scheduled, after a latency decrease) is re-scheduled for now, like
  // the one-event-per-packet path, so dispatch interleaving at a timestamp
  // is unchanged and results stay bit-identical.
  const Time now = eq_.now();
  for (;;) {
    ++delivered_;
    // On long-latency wires the ring spans a full BDP, so the next packet's
    // block was written one latency ago and is cold; start pulling it in
    // (both cache lines — an 88-byte packet can straddle two) while this
    // delivery's forward chain executes. The ring entry stays until the pop
    // below, so a synchronous push during the forward sees size >= 2 and
    // never double-schedules the exit event.
    if (inflight_.size() > 1) {
      const char* next = reinterpret_cast<const char*>(inflight_[1].p);
      __builtin_prefetch(next);
      __builtin_prefetch(next + 64);
    }
    forward_parked(inflight_.front().p, packets_);
    inflight_.pop_front();
    if (inflight_.empty()) return;
    if (inflight_.front().due != now) break;
    ++coalesced_;
  }
  eq_.schedule_at(std::max(inflight_.front().due, now), this, kWireExit);
}

void Port::set_latency(Time latency) {
  if (channel_)
    channel_->set_latency(latency);
  else
    latency_ = latency;
}

void Port::set_up(bool up) {
  if (channel_) {
    channel_->set_up(up);
    return;
  }
  if (!up && up_) {
    // The wire is severed: everything currently propagating is lost. The
    // already-scheduled exit events turn into stale no-ops (see the guard
    // in wire_exit).
    dropped_ += inflight_.size();
    flush_wire();
  }
  up_ = up;
}

std::unique_ptr<LossModel> Port::swap_loss_model(std::unique_ptr<LossModel> model) {
  if (channel_) return channel_->swap_loss_model(std::move(model));
  std::swap(loss_, model);
  return model;
}

void Port::flush_wire() {
  for (std::size_t i = 0; i < inflight_.size(); ++i) release_packet(packets_, inflight_[i].p);
  inflight_.clear();
}

}  // namespace uno
