#include "transport/flow.hpp"

#include <algorithm>
#include <cassert>

namespace uno {

namespace {

// Engines are whole objects on their shard's slab pool (counted there as
// live objects), or on the heap for endpoints built without a pool.
void* acquire_engine(SlabPool* pool, std::size_t bytes) {
  return pool != nullptr ? pool->acquire_object(bytes) : ::operator new(bytes);
}

void release_engine(SlabPool* pool, void* p, std::size_t bytes) {
  if (pool != nullptr)
    pool->release_object(p, bytes);
  else
    ::operator delete(p);
}

constexpr std::size_t align16(std::size_t n) { return (n + 15) & ~std::size_t{15}; }

/// A record carries no name string: names are rare (traces, assertions), so
/// they are built into per-thread scratch, valid until the next call.
const std::string& flow_name(std::uint64_t id, const char* end) {
  thread_local std::string name;
  name = "flow" + std::to_string(id) + end;
  return name;
}

}  // namespace

// ---------------------------------------------------------------------------
// FlowSender::Engine — everything a sender needs only while it is live.
// ---------------------------------------------------------------------------

struct FlowSender::Payload {
  Payload(const FlowParams& p, const TransportParams& t)
      : frame(p.size_bytes, t.mtu, p.ec_enabled, t.ec_data, t.ec_parity),
        store(p.id, frame, t.payload_shard_bytes) {}
  BlockFrame frame;  // the store's framing, outliving the engine's
  PayloadStore store;
};

class FlowSender::Engine {
 public:
  /// One pool block holds the engine, then the CC, then the LB, each built
  /// in place by the flow stack.
  static std::size_t cc_offset() { return align16(sizeof(Engine)); }
  static std::size_t lb_offset(const FlowStack& st) { return cc_offset() + align16(st.cc_bytes()); }
  static std::size_t block_bytes(const FlowStack& st) { return lb_offset(st) + st.lb_bytes(); }

  Engine(FlowSender& s, unsigned char* block);
  ~Engine() {
    cc_->~CongestionControl();
    lb_->~LoadBalancer();
  }
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  CongestionControl& cc() { return *cc_; }
  LoadBalancer& lb() { return *lb_; }
  std::int64_t bytes_in_flight() const { return bytes_in_flight_; }
  bool rto_stale(std::uint64_t tag) const { return rto_.stale(tag); }

  void try_send();
  void on_pacing() {
    pacing_timer_armed_ = false;
    try_send();
  }
  void on_rto_event(std::uint64_t tag) {
    if (rto_.fire(eq_, tag)) on_rto();
  }
  void handle_ack(const Packet& ack);
  void handle_nack(const Packet& nack);
  void handle_trim_nack(const Packet& nack);
  void handle_qcn() { cc_->on_qcn(eq_.now()); }

  /// Final tallies, read by FlowSender::complete() before recycling.
  std::uint64_t count_lost() const;
  void cancel_rto() { rto_.cancel(eq_); }

 private:
  enum class PktState : std::uint8_t { kUnsent, kInflight, kLost, kAcked };

  bool send_packet(std::uint64_t seq, bool is_retransmit);
  /// Time-based (RACK-style) loss detection: packets sent a reordering
  /// window before the newest-acked packet are declared lost without
  /// waiting for the RTO.
  void detect_losses();
  /// Forward a loss indication to the CC, at most once per base RTT.
  void signal_loss_to_cc();
  void on_rto();
  /// Send time of the oldest authoritative in-flight transmission, or -1.
  Time oldest_inflight_sent();
  /// Next sequence due for (re)transmission, or -1 when nothing is pending.
  std::int64_t next_seq_to_send();
  void arm_rto_at(Time t) { rto_.arm_at(eq_, &s_, kTagRto, t); }

  FlowSender& s_;
  EventQueue& eq_;
  const FlowParams& params_;
  const TransportParams& transport_;
  const PathSet* paths_;
  CongestionControl* cc_;
  LoadBalancer* lb_;

  BlockFrame frame_;
  /// Per-seq transmission record, packed into 16 bytes so the per-ACK path
  /// (state check, send-time compare, path blame) touches one cache line
  /// instead of three parallel arrays.
  struct PktMeta {
    Time sent = -1;             // last transmission time (-1 = never sent)
    std::uint16_t entropy = 0;  // path the seq was last sent on
    PktState state = PktState::kUnsent;
  };
  SlabVec<PktMeta> meta_;
  PodRing<std::uint64_t> rtx_queue_;
  /// One transmission in time order (see send_order_). An entry is
  /// authoritative only while meta_[seq].sent still equals its timestamp
  /// (a retransmission supersedes earlier entries for the same seq).
  struct SendRec {
    Time sent;
    std::uint64_t seq;
  };
  PodRing<SendRec> send_order_;
  Time highest_acked_sent_ = -1;     // newest send time seen in an ACK
  Time last_fast_loss_signal_ = -1;  // rate-limits CC loss signals
  Time last_progress_ = -1;          // last new ACK (RTO escalates on silence)
  Time first_send_time_ = -1;
  std::uint64_t next_new_seq_ = 0;
  std::int64_t bytes_in_flight_ = 0;

  Time next_send_time_ = 0;  // pacing gate
  bool pacing_timer_armed_ = false;
  TagTimer rto_;
};

FlowSender::Engine::Engine(FlowSender& s, unsigned char* block)
    : s_(s),
      eq_(s.eq_),
      params_(s.params_),
      transport_(s.transport()),
      paths_(s.paths_),
      cc_(s.stack_->build_cc(block + cc_offset(), s.params_)),
      lb_(s.stack_->build_lb(block + lb_offset(*s.stack_), s.params_,
                             static_cast<std::uint16_t>(s.paths_->size()), s.pool_)),
      frame_(params_.size_bytes, transport_.mtu, params_.ec_enabled, transport_.ec_data,
             transport_.ec_parity, s.pool_),
      rtx_queue_(s.pool_),
      send_order_(s.pool_) {
  cc_->set_trace(s.trace_);
  lb_->set_trace(s.trace_);
  meta_.assign(frame_.total_packets(), PktMeta{}, s.pool_);
}

std::int64_t FlowSender::Engine::next_seq_to_send() {
  // Retransmissions take priority over first transmissions.
  while (!rtx_queue_.empty()) {
    const std::uint64_t seq = rtx_queue_.front();
    if (meta_[seq].state != PktState::kLost ||
        (frame_.ec_enabled() && frame_.block_complete(frame_.shard_of(seq).block))) {
      rtx_queue_.pop_front();  // acked meanwhile, or its block became decodable
      continue;
    }
    return static_cast<std::int64_t>(seq);
  }
  while (next_new_seq_ < frame_.total_packets()) {
    if (frame_.ec_enabled() &&
        frame_.block_complete(frame_.shard_of(next_new_seq_).block)) {
      ++next_new_seq_;  // block already decodable; its tail is redundant
      continue;
    }
    return static_cast<std::int64_t>(next_new_seq_);
  }
  return -1;
}

void FlowSender::Engine::try_send() {
  const double rate = cc_->pacing_rate();
  while (true) {
    const std::int64_t seq = next_seq_to_send();
    if (seq < 0) break;
    const std::uint32_t size = frame_.shard_of(seq).size;
    if (bytes_in_flight_ > 0 && bytes_in_flight_ + size > cc_->cwnd()) break;
    if (rate > 0.0) {
      const Time now = eq_.now();
      if (now < next_send_time_) {
        if (!pacing_timer_armed_) {
          pacing_timer_armed_ = true;
          eq_.schedule_at(next_send_time_, &s_, kTagPacing);
        }
        break;
      }
      next_send_time_ = std::max(now, next_send_time_) +
                        static_cast<Time>(static_cast<double>(size) * kSecond / rate);
    }
    const bool rtx = meta_[seq].state == PktState::kLost;
    if (rtx)
      rtx_queue_.pop_front();
    else
      ++next_new_seq_;
    send_packet(seq, rtx);
  }
}

bool FlowSender::Engine::send_packet(std::uint64_t seq, bool is_retransmit) {
  const BlockFrame::Shard shard = frame_.shard_of(seq);
  const std::uint16_t entropy =
      static_cast<std::uint16_t>(lb_->pick(seq) % paths_->size());
  Packet p = make_data_packet(params_.id, seq, shard.size);
  p.block_id = shard.block;
  p.shard = shard.index;
  p.is_parity = shard.parity;
  p.retransmit = is_retransmit;
  p.src_host = params_.src;
  if (s_.payload_) p.payload = s_.payload_->store.shard(seq).data();
  p.sent_time = eq_.now();
  p.entropy = entropy;
  p.subflow = static_cast<std::uint8_t>(entropy & 0xFF);
  p.route = &paths_->forward[entropy];
  p.hop = 0;

  meta_[seq] = PktMeta{eq_.now(), entropy, PktState::kInflight};
  send_order_.emplace_back(eq_.now(), seq);
  bytes_in_flight_ += shard.size;
  s_.bytes_sent_ += shard.size;
  ++s_.packets_sent_;
  if (is_retransmit) {
    ++s_.retransmits_;
    UNO_TRACE_EVENT(s_.trace_, TraceKind::kRetransmit, eq_.now(), seq, entropy);
  }
  if (first_send_time_ < 0) first_send_time_ = eq_.now();
  // The loss timer fires at expiry granularity (tail losses produce no ACKs
  // to clock detect_losses) and escalates to a full RTO on real silence.
  if (!rto_.armed()) arm_rto_at(eq_.now() + params_.effective_loss_expiry());

  forward(std::move(p));
  return true;
}

void FlowSender::Engine::handle_trim_nack(const Packet& nack) {
  const std::uint64_t seq = nack.ack_seq;
  assert(seq < frame_.total_packets());
  // Only authoritative for the transmission it refers to: if the shard was
  // meanwhile acked, declared lost, or retransmitted, ignore the stale trim.
  if (meta_[seq].state != PktState::kInflight || meta_[seq].sent != nack.echo_sent_time)
    return;
  meta_[seq].state = PktState::kLost;
  bytes_in_flight_ -= frame_.shard_of(seq).size;
  rtx_queue_.push_back(seq);
  signal_loss_to_cc();
  try_send();
}

void FlowSender::Engine::handle_ack(const Packet& ack) {
  const std::uint64_t seq = ack.ack_seq;
  assert(seq < frame_.total_packets());
  lb_->on_ack(ack.entropy, ack.ecn_echo, eq_.now());

  PktMeta& m = meta_[seq];
  if (m.state == PktState::kAcked) return;  // duplicate delivery
  if (m.state == PktState::kInflight) bytes_in_flight_ -= frame_.shard_of(seq).size;
  m.state = PktState::kAcked;
  const std::uint32_t size = frame_.shard_of(seq).size;
  s_.acked_bytes_ += size;
  last_progress_ = eq_.now();
  frame_.mark(seq);

  AckEvent ev;
  ev.now = eq_.now();
  ev.bytes_acked = size;
  ev.ecn = ack.ecn_echo;
  ev.rtt = eq_.now() - ack.echo_sent_time;
  ev.pkt_sent_time = ack.echo_sent_time;
  cc_->on_ack(ev);

  if (frame_.complete()) {
    s_.complete();  // recycles this engine: touch nothing after
    return;
  }
  highest_acked_sent_ = std::max(highest_acked_sent_, ack.echo_sent_time);
  detect_losses();
  try_send();
}

Time FlowSender::Engine::oldest_inflight_sent() {
  while (!send_order_.empty()) {
    const auto [sent, seq] = send_order_.front();
    if (meta_[seq].state != PktState::kInflight || meta_[seq].sent != sent) {
      send_order_.pop_front();
      continue;
    }
    return sent;
  }
  return -1;
}

void FlowSender::Engine::detect_losses() {
  const Time window = transport_.effective_rack_window(params_.base_rtt);
  const Time expiry = params_.effective_loss_expiry();
  const Time now = eq_.now();
  bool lost_any = false;
  while (!send_order_.empty()) {
    const auto [sent, seq] = send_order_.front();
    if (meta_[seq].state != PktState::kInflight || meta_[seq].sent != sent) {
      send_order_.pop_front();  // acked, already queued for rtx, or resent
      continue;
    }
    const bool rack_lost = sent + window < highest_acked_sent_;
    const bool expired = sent + expiry <= now;
    if (!rack_lost && !expired) break;  // still plausibly in flight
    send_order_.pop_front();
    meta_[seq].state = PktState::kLost;
    bytes_in_flight_ -= frame_.shard_of(seq).size;
    rtx_queue_.push_back(seq);
    if (!lost_any) {
      // First detected loss of this batch: hint the load balancer about the
      // path it died on. UnoLB treats it like a NACK (rate-limited reroute
      // away from failed links even when EC/NACKs are off); PLB and RPS
      // ignore loss hints by design.
      lb_->on_nack(meta_[seq].entropy, now);
    }
    lost_any = true;
  }
  if (lost_any) signal_loss_to_cc();
}

void FlowSender::Engine::signal_loss_to_cc() {
  // Losses signal congestion, but at most once per RTT (like a DCTCP
  // loss-round); the NACK hook gives each CC its moderate-reduction path.
  if (eq_.now() - last_fast_loss_signal_ <= params_.base_rtt) return;
  last_fast_loss_signal_ = eq_.now();
  cc_->on_nack(eq_.now());
}

void FlowSender::Engine::handle_nack(const Packet& nack) {
  ++s_.nacks_received_;
  const std::uint32_t block = nack.nack_block;
  assert(block < frame_.num_blocks());
  if (frame_.block_complete(block)) return;  // stale NACK; already decodable

  // Declare the block's *stale* in-flight shards lost and queue them for
  // retransmission; shards sent within the last block_timeout are likely
  // still in transit and are left alone (the receiver re-NACKs if they
  // never land). Blame the path of the first missing shard.
  const std::uint64_t first = frame_.first_seq_of_block(block);
  const std::uint64_t end = first + frame_.shards_in_block(block);
  const Time stale_before = eq_.now() - transport_.block_timeout;
  bool blamed = false;
  std::uint64_t requeued = 0;
  for (std::uint64_t seq = first; seq < end; ++seq) {
    if (meta_[seq].state == PktState::kInflight && meta_[seq].sent <= stale_before) {
      meta_[seq].state = PktState::kLost;
      bytes_in_flight_ -= frame_.shard_of(seq).size;
      rtx_queue_.push_back(seq);
      ++requeued;
      if (!blamed) {
        lb_->on_nack(meta_[seq].entropy, eq_.now());
        blamed = true;
      }
    }
  }
  if (!blamed) lb_->on_nack(nack.entropy, eq_.now());
  UNO_TRACE_EVENT(s_.trace_, TraceKind::kNackReceived, eq_.now(), block, requeued);
  signal_loss_to_cc();
  try_send();
}

void FlowSender::Engine::on_rto() {
  // Lazy two-stage loss timer, anchored to the oldest outstanding
  // transmission:
  //  * at oldest + loss_expiry: run the expiry scan (recovers tail losses
  //    that produce no ACKs to clock detect_losses) and retransmit under
  //    the current window — no window collapse;
  //  * at oldest + RTO with ACKs genuinely silent: classic full RTO —
  //    declare everything lost and let the CC collapse.
  const Time now = eq_.now();
  Time oldest = oldest_inflight_sent();
  if (oldest < 0) {
    try_send();  // nothing outstanding; flush any queued retransmissions
    return;
  }
  // Full RTO keys on ACK *silence*, not packet age: the expiry scan keeps
  // retransmitting (refreshing packet ages), so a truly dead path would
  // otherwise never escalate to the CC/LB timeout reaction.
  const Time last_heard = std::max(last_progress_, first_send_time_);
  const Time rto = transport_.effective_rto(params_.base_rtt);
  if (now - last_heard >= rto) {
    // Everything outstanding is presumed lost (selective-repeat recovery:
    // any shard acked in the meantime is skipped when the queue drains).
    for (std::uint64_t seq = 0; seq < frame_.total_packets(); ++seq) {
      if (meta_[seq].state == PktState::kInflight) {
        meta_[seq].state = PktState::kLost;
        rtx_queue_.push_back(seq);
      }
    }
    bytes_in_flight_ = 0;
    send_order_.clear();
    cc_->on_loss(now);
    lb_->on_timeout(now);
    try_send();
    return;
  }
  if (now >= oldest + params_.effective_loss_expiry()) {
    detect_losses();
    try_send();
    oldest = oldest_inflight_sent();
  }
  if (oldest >= 0) {
    const Time next = std::max(oldest + params_.effective_loss_expiry(), now + 1);
    arm_rto_at(std::min(next, last_heard + rto));
  }
}

std::uint64_t FlowSender::Engine::count_lost() const {
  std::uint64_t n = 0;
  for (const PktMeta& m : meta_)
    if (m.state == PktState::kLost) ++n;
  return n;
}

// ---------------------------------------------------------------------------
// FlowSender — the record
// ---------------------------------------------------------------------------

FlowSender::FlowSender(EventQueue& eq, const FlowParams& params, const PathSet* paths,
                       FlowStack& stack, SlabPool* pool)
    : eq_(eq), params_(params), paths_(paths), stack_(&stack), pool_(pool) {
  assert(paths_ != nullptr && !paths_->empty());
  assert(total_packets() < (1ull << 32) && "packet counters are 32-bit");
  const TransportParams& t = transport();
  if (t.verify_payload && params_.ec_enabled && t.ec_parity > 0)
    payload_ = std::make_unique<Payload>(params_, t);
}

FlowSender::~FlowSender() {
  if (engine_ != nullptr) destroy_engine();
}

const std::string& FlowSender::name() const { return flow_name(params_.id, ".snd"); }

void FlowSender::launch() {
  assert(engine_ == nullptr && !done_);
  auto* block =
      static_cast<unsigned char*>(acquire_engine(pool_, Engine::block_bytes(*stack_)));
  engine_ = ::new (block) Engine(*this, block);
  engine_->try_send();
}

void FlowSender::destroy_engine() {
  engine_->~Engine();
  release_engine(pool_, engine_, Engine::block_bytes(*stack_));
  engine_ = nullptr;
}

void FlowSender::start() {
  if (params_.start_time <= eq_.now())
    launch();
  else
    eq_.schedule_at(params_.start_time, this, kTagStart);
}

CongestionControl& FlowSender::cc() {
  assert(live() && "cc() exists only while the flow is live");
  return engine_->cc();
}

const CongestionControl& FlowSender::cc() const {
  assert(live() && "cc() exists only while the flow is live");
  return engine_->cc();
}

LoadBalancer& FlowSender::lb() {
  assert(live() && "lb() exists only while the flow is live");
  return engine_->lb();
}

std::uint64_t FlowSender::reroutes() const {
  if (engine_ == nullptr) return reroutes_;
  const auto* lb = dynamic_cast<const UnoLb*>(&engine_->lb());
  return lb != nullptr ? lb->reroutes() : 0;
}

std::int64_t FlowSender::bytes_in_flight() const {
  return engine_ != nullptr ? engine_->bytes_in_flight() : 0;
}

void FlowSender::set_trace(TraceContext tc) {
  trace_ = tc;
  if (engine_ == nullptr) return;
  engine_->cc().set_trace(tc);
  engine_->lb().set_trace(tc);
}

void FlowSender::on_event(std::uint64_t tag) {
  switch (TagTimer::kind_of(tag)) {
    case kTagStart:
      launch();
      break;
    case kTagPacing:
      if (engine_ != nullptr) engine_->on_pacing();
      break;
    case kTagRto:
      // Completion cancelled the timer, so with no engine every RTO wakeup
      // is a superseded arm.
      if (engine_ != nullptr)
        engine_->on_rto_event(tag);
      else
        eq_.note_stale_consumed();
      break;
    default:
      assert(false && "unknown sender event tag");
  }
}

bool FlowSender::event_stale(std::uint64_t tag) const {
  return TagTimer::kind_of(tag) == kTagRto &&
         (engine_ == nullptr || engine_->rto_stale(tag));
}

void FlowSender::receive(Packet&& p) {
  if (engine_ == nullptr) return;  // completed: late feedback changes nothing
  if (p.type == PacketType::kAck)
    engine_->handle_ack(p);
  else if (p.type == PacketType::kNack)
    engine_->handle_nack(p);
  else if (p.type == PacketType::kTrimNack)
    engine_->handle_trim_nack(p);
  else if (p.type == PacketType::kQcn)
    engine_->handle_qcn();
  // Data packets can only arrive here if a route was miswired; drop them.
}

void FlowSender::complete() {
  done_ = true;
  fct_ = eq_.now() - params_.start_time;
  engine_->cancel_rto();
  // Shards still in kLost were never retransmitted, yet every block is
  // decodable: parity masked those losses.
  fec_masked_ = static_cast<std::uint32_t>(engine_->count_lost());
  if (fec_masked_ > 0)
    UNO_TRACE_EVENT(trace_, TraceKind::kFecMasked, eq_.now(), fec_masked_, total_packets());
  reroutes_ = static_cast<std::uint32_t>(reroutes());
  destroy_engine();
  stack_->flow_completed(result());
}

FlowResult FlowSender::result() const {
  FlowResult r;
  r.id = params_.id;
  r.src = params_.src;
  r.dst = params_.dst;
  r.interdc = params_.interdc;
  r.size_bytes = params_.size_bytes;
  r.start_time = params_.start_time;
  r.completion_time = fct_;
  r.packets_sent = packets_sent_;
  r.retransmits = retransmits_;
  r.nacks = nacks_received_;
  r.fec_masked = fec_masked_;
  return r;
}

// ---------------------------------------------------------------------------
// FlowReceiver
// ---------------------------------------------------------------------------

/// Per-packet receive state, alive from the first untrimmed data packet
/// until the message completes (for good in verify mode).
class FlowReceiver::Engine {
 public:
  Engine(const FlowParams& p, const TransportParams& t, SlabPool* pool)
      : frame(p.size_bytes, t.mtu, p.ec_enabled, t.ec_data, t.ec_parity, pool),
        block_deadline(pool) {
    if (t.verify_payload && frame.ec_enabled())
      verifier = std::make_unique<PayloadVerifier>(p.id, frame, t.payload_shard_bytes);
  }

  /// Arrivals and per-block shard accounting (degenerate for non-EC).
  BlockFrame frame;
  std::unique_ptr<PayloadVerifier> verifier;  // only with verify_payload
  /// Pending incomplete blocks and their NACK deadlines (flat, sorted,
  /// allocation-free in steady state — see transport/deadline_ring.hpp).
  DeadlineRing block_deadline;
};

FlowReceiver::FlowReceiver(EventQueue& eq, const FlowSender& sender, SlabPool* pool)
    : eq_(eq), sender_(sender), pool_(pool) {}

const FlowParams& FlowReceiver::params() const { return sender_.params(); }
const TransportParams& FlowReceiver::transport() const { return sender_.transport(); }
const PathSet& FlowReceiver::paths() const { return sender_.paths(); }
const std::string& FlowReceiver::name() const { return flow_name(params().id, ".rcv"); }

FlowReceiver::~FlowReceiver() {
  if (engine_ != nullptr) destroy_engine();
}

void FlowReceiver::destroy_engine() {
  engine_->~Engine();
  release_engine(pool_, engine_, sizeof(Engine));
  engine_ = nullptr;
}

const PayloadVerifier* FlowReceiver::verifier() const {
  return engine_ != nullptr ? engine_->verifier.get() : nullptr;
}

std::uint32_t FlowReceiver::payload_blocks_verified() const {
  return verifier() != nullptr ? verifier()->blocks_verified() : 0;
}

std::uint32_t FlowReceiver::payload_blocks_corrupt() const {
  return verifier() != nullptr ? verifier()->blocks_corrupt() : 0;
}

std::uint64_t FlowReceiver::payload_pool_acquires() const {
  return verifier() != nullptr ? verifier()->pool_acquires() : 0;
}

std::uint64_t FlowReceiver::payload_pool_heap_allocs() const {
  return verifier() != nullptr ? verifier()->pool_heap_allocs() : 0;
}

bool FlowReceiver::message_complete() const {
  return retired_ || (engine_ != nullptr && engine_->frame.complete());
}

void FlowReceiver::receive(Packet&& p) {
  if (p.type != PacketType::kData) return;  // miswired route
  if (p.trimmed) {
    // Payload was discarded in-network; tell the sender which transmission
    // died so it can retransmit without waiting for RACK/RTO.
    last_entropy_ = p.entropy;
    ++trims_seen_;
    Packet nack = make_trim_nack_packet(p, &paths().reverse[p.entropy]);
    forward(std::move(nack));
    return;
  }
  const std::uint64_t seq = p.seq;
  last_entropy_ = p.entropy;

  if (retired_) {
    // Message already finished and its engine recycled: any further arrival
    // (redundant EC shard, crossed retransmission) just gets its ACK.
    // Indistinguishable on the wire from the duplicate path below — only
    // receiver-local tallies differ.
    ++duplicates_;
    send_ack(p);
    return;
  }
  if (engine_ == nullptr)
    engine_ = ::new (acquire_engine(pool_, sizeof(Engine))) Engine(params(), transport(), pool_);
  Engine& e = *engine_;
  assert(seq < e.frame.total_packets());

  if (e.frame.mark(seq)) {
    ++received_count_;
    const std::uint32_t block = p.block_id;
    if (e.verifier && p.payload != nullptr) e.verifier->on_shard(block, p.shard, p.payload);
    if (e.frame.ec_enabled()) {
      if (e.frame.block_complete(block)) {
        e.block_deadline.erase(block);
        UNO_TRACE_EVENT(trace_, TraceKind::kBlockDecoded, eq_.now(), block,
                        received_count_);
      } else {
        // (Re)start the reassembly timer: any arrival is progress, so the
        // NACK deadline counts from the latest shard, not the first.
        e.block_deadline.set(block, eq_.now() + transport().block_timeout);
        arm_block_timer();
      }
    }
    if (e.frame.complete() && !e.verifier) retire();
  } else {
    ++duplicates_;
  }
  send_ack(p);
}

void FlowReceiver::retire() {
  destroy_engine();
  retired_ = true;
}

void FlowReceiver::send_ack(const Packet& data) {
  Packet ack = make_ack_packet(data, &paths().reverse[data.entropy]);
  forward(std::move(ack));
}

void FlowReceiver::send_nack(std::uint32_t block, std::uint16_t entropy) {
  ++nacks_sent_;
  UNO_TRACE_EVENT(trace_, TraceKind::kNackSent, eq_.now(), block, entropy);
  Packet nack = make_nack_packet(params().id, block, &paths().reverse[entropy]);
  nack.entropy = entropy;
  forward(std::move(nack));
}

void FlowReceiver::arm_block_timer() {
  // A retired receiver has no pending blocks: every block completed.
  const Time earliest =
      engine_ != nullptr ? engine_->block_deadline.earliest() : kTimeInfinity;
  if (earliest == kTimeInfinity) {
    block_timer_.cancel(eq_);
    return;
  }
  if (!block_timer_.armed() || block_timer_.deadline() > earliest)
    block_timer_.arm_at(eq_, this, kTagBlockTimer, earliest);
}

void FlowReceiver::on_event(std::uint64_t tag) {
  if (!block_timer_.fire(eq_, tag)) return;
  if (engine_ != nullptr) {
    const Time now = eq_.now();
    engine_->block_deadline.expire(now, [&](std::uint32_t block) {
      send_nack(block, last_entropy_);
      // Re-NACK later if the retransmission round trip also fails.
      return now + params().base_rtt + transport().block_timeout;
    });
  }
  arm_block_timer();
}

// ---------------------------------------------------------------------------
// Flow
// ---------------------------------------------------------------------------

Flow::Flow(EventQueue& eq, Host& src_host, Host& dst_host, const FlowParams& params,
           const PathSet* paths, FlowStack& stack)
    : Flow(eq, eq, src_host, dst_host, params, paths, stack) {}

Flow::Flow(EventQueue& snd_eq, EventQueue& rcv_eq, Host& src_host, Host& dst_host,
           const FlowParams& params, const PathSet* paths, FlowStack& stack,
           SlabPool* snd_pool, SlabPool* rcv_pool)
    : sender_(snd_eq, params, paths, stack, snd_pool),
      receiver_(rcv_eq, sender_, rcv_pool),
      flows_(src_host.flows()) {
  assert(&dst_host.flows() == &flows_ && "both hosts demux through one table");
  (void)dst_host;
  flows_.bind(params.id, &sender_, &receiver_);
}

Flow::~Flow() { flows_.unbind(sender_.params().id); }

}  // namespace uno
