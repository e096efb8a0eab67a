// Reliable message transport: one Flow = one message from src to dst.
//
// The sender segments the message into MTU packets (optionally framed into
// erasure-coded blocks), transmits under the congestion controller's window
// and pacing rate, spreads packets over paths via a load balancer, and
// recovers losses through RTO and receiver NACKs. The receiver ACKs every
// data packet (echoing ECN and the transmission timestamp), tracks EC block
// completeness, and NACKs blocks whose reassembly timer expires.
//
// Flow completion time is measured exactly as in the paper (§1, Fig. 1):
// from the transmission of the first packet to the arrival of the ACK that
// makes the message fully delivered (for EC flows: every block decodable).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/bitmap.hpp"
#include "core/ring.hpp"
#include "fec/block.hpp"
#include "fec/payload.hpp"
#include "lb/loadbalancer.hpp"
#include "net/host.hpp"
#include "net/packet.hpp"
#include "sim/event.hpp"
#include "topo/pathset.hpp"
#include "transport/cc.hpp"
#include "transport/deadline_ring.hpp"

namespace uno {

/// One flow's own parameters, stored in its record. The knobs every flow of
/// a run shares live once in the run's FlowStack (TransportParams below).
struct FlowParams {
  std::uint64_t id = 0;
  int src = 0;
  int dst = 0;
  std::uint64_t size_bytes = 0;
  Time start_time = 0;
  Time base_rtt = 14 * kMicrosecond;
  bool interdc = false;
  /// Erasure coding (UnoRC): the experiment enables it on inter-DC flows.
  bool ec_enabled = false;

  /// Wall-clock bound: a packet outstanding this long is lost even if no
  /// newer packet has been ACKed (clears "ghost" inflight when sending is
  /// window-blocked, without waiting for the full RTO). Must exceed the
  /// worst-case queueing delay during overload transients or it creates
  /// duplicate-retransmission spirals.
  Time effective_loss_expiry() const {
    return std::max<Time>(3 * base_rtt, 3 * kMillisecond);
  }
};

/// Transport knobs shared by every flow of a run, held once by its
/// FlowStack rather than copied into each flow record.
struct TransportParams {
  std::int64_t mtu = 4096;
  /// EC block shape, applied to flows with FlowParams::ec_enabled.
  int ec_data = 8;
  int ec_parity = 2;
  /// Receiver-side block reassembly timer ("estimated maximum queuing and
  /// transmission delay", §4.2).
  Time block_timeout = 300 * kMicrosecond;
  /// Carry and verify real shard payloads end-to-end (fec/payload.hpp):
  /// the sender Reed–Solomon-encodes actual bytes, the receiver
  /// reconstructs each block from whatever shards arrived and checks them
  /// bit-for-bit. Costs memory/CPU; meant for tests and validation runs.
  bool verify_payload = false;
  std::size_t payload_shard_bytes = 256;
  /// Retransmission timeout; 0 derives max(4*base_rtt, 1ms). The floor keeps
  /// intra-DC flows from spurious go-back-N under transient full queues
  /// (~84us of queuing per congested 1 MiB hop dwarfs the 14us base RTT).
  Time rto = 0;
  /// RACK-style reordering window: a packet is declared lost once a packet
  /// *sent this much later* has been ACKed. With trimming providing exact
  /// per-packet loss signals, RACK is a backstop for hard drops (failed
  /// links, random WAN loss), so the window is sized generously above
  /// multipath delay spread and transient queueing. 0 derives
  /// max(base_rtt, 300us).
  Time rack_window = 0;

  Time effective_rto(Time base_rtt) const {
    return rto > 0 ? rto : std::max<Time>(4 * base_rtt, kMillisecond);
  }
  Time effective_rack_window(Time base_rtt) const {
    return rack_window > 0 ? rack_window : std::max<Time>(base_rtt, 300 * kMicrosecond);
  }
};

/// Summary handed to the completion callback.
struct FlowResult {
  std::uint64_t id = 0;
  int src = 0;
  int dst = 0;
  bool interdc = false;
  std::uint64_t size_bytes = 0;
  Time start_time = 0;
  Time completion_time = 0;  // FCT
  std::uint64_t packets_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t nacks = 0;
  /// Shards still marked lost when the message completed: losses the
  /// erasure code masked, sparing a retransmission (0 for non-EC flows).
  std::uint64_t fec_masked = 0;

  bool operator==(const FlowResult&) const = default;
};

/// Absolute simulation time a flow finished (FlowResult::completion_time is
/// the FCT *duration*) — the clock closed-loop scenarios react against.
inline Time flow_finish_time(const FlowResult& r) {
  return r.start_time + r.completion_time;
}

/// The run-wide half of every flow, reached through one pointer per flow
/// record instead of per-flow heap objects and closures: holds the shared
/// transport knobs, builds each flow's congestion controller and load
/// balancer in place when its engine starts (the closed set of kinds lives
/// in core/scheme.cpp), and hears every completion.
class FlowStack {
 public:
  /// `cc_bytes` / `lb_bytes`: in-place storage every build_cc / build_lb
  /// result fits in (max-aligned).
  FlowStack(std::size_t cc_bytes, std::size_t lb_bytes, const TransportParams& transport = {})
      : cc_bytes_(cc_bytes), lb_bytes_(lb_bytes), transport_(transport) {}
  virtual ~FlowStack() = default;

  std::size_t cc_bytes() const { return cc_bytes_; }
  std::size_t lb_bytes() const { return lb_bytes_; }
  const TransportParams& transport() const { return transport_; }
  /// Replace the shared knobs; only before any flow on this stack is built.
  void set_transport(const TransportParams& t) { transport_ = t; }

  /// Construct the flow's congestion controller in `where`.
  virtual CongestionControl* build_cc(void* where, const FlowParams& p) const = 0;
  /// Construct the flow's load balancer over `num_paths` paths in `where`;
  /// its per-path state comes from `pool` (the heap if null).
  virtual LoadBalancer* build_lb(void* where, const FlowParams& p, std::uint16_t num_paths,
                                 SlabPool* pool) const = 0;
  /// A flow completed. Runs on the sender's shard thread, after the flow's
  /// engine has been recycled; `r` is built from the record.
  virtual void flow_completed(const FlowResult& r) { (void)r; }

 private:
  std::size_t cc_bytes_;
  std::size_t lb_bytes_;
  TransportParams transport_;
};

// A flow is split by lifetime. Its *record* — FlowSender + FlowReceiver,
// bundled as Flow — lives from spawn to teardown: the parameters, the public
// counters, done/fct, the host registrations, and the handler every event
// of the flow is scheduled against. Its *engine* — the CC and LB, framing,
// per-packet state, rings, pacing and retransmission timing — exists only
// while the flow is live: one slab-pool block per endpoint, built when the
// sender starts (or the receiver hears its first untrimmed data packet) and
// recycled the moment the message completes (DESIGN.md §15).

class FlowSender;

class FlowReceiver final : public PacketSink, public EventHandler {
 public:
  /// The receiver reads its parameters and reverse paths from `sender` (its
  /// own flow's record, which must outlive it; both are immutable after
  /// construction, so the receiver's shard thread may read them). With a
  /// `pool`, the engine (arrival bitmap, block deadlines) is drawn from
  /// that slab pool and recycled to it the moment the message completes, so
  /// flow churn stops touching the heap (core/slab.hpp).
  FlowReceiver(EventQueue& eq, const FlowSender& sender, SlabPool* pool = nullptr);
  ~FlowReceiver() override;

  void receive(Packet&& p) override;
  void on_event(std::uint64_t tag) override;
  bool event_stale(std::uint64_t tag) const override { return block_timer_.stale(tag); }
  /// "flowN.rcv", built on demand (see flow_name()).
  const std::string& name() const override;

  std::uint64_t data_packets_received() const { return received_count_; }
  std::uint64_t duplicates() const { return duplicates_; }
  std::uint64_t nacks_sent() const { return nacks_sent_; }
  std::uint64_t trims_seen() const { return trims_seen_; }
  /// Payload verification outcomes (0 unless TransportParams::verify_payload).
  std::uint32_t payload_blocks_verified() const;
  std::uint32_t payload_blocks_corrupt() const;
  /// Arena-pool counters (0 unless verify_payload): heap allocs flat while
  /// acquires grows is the zero-allocation steady-state contract.
  std::uint64_t payload_pool_acquires() const;
  std::uint64_t payload_pool_heap_allocs() const;
  bool message_complete() const;

  /// Attach to a flight recorder (block decode + NACK instants, kRc).
  void set_trace(TraceContext tc) { trace_ = tc; }

 private:
  class Engine;
  enum : std::uint32_t { kTagBlockTimer = 1 };

  void send_ack(const Packet& data);
  void send_nack(std::uint32_t block, std::uint16_t entropy);
  void arm_block_timer();
  /// Recycle the engine once the message completed. Late arrivals afterwards
  /// are counted as duplicates and acked from the record alone — never taken
  /// in verify mode, where the verifier still consumes shard payloads.
  void retire();
  void destroy_engine();

  const FlowParams& params() const;
  const TransportParams& transport() const;
  const PathSet& paths() const;
  const PayloadVerifier* verifier() const;

  // Packet counters are 32-bit (a flow would need 16 TiB at a 4 KiB MTU to
  // wrap one); the first packs into EventHandler's tail padding.
  std::uint32_t received_count_ = 0;
  EventQueue& eq_;
  const FlowSender& sender_;
  SlabPool* pool_;
  Engine* engine_ = nullptr;  // null until the first data packet, and once retired
  std::uint32_t duplicates_ = 0;
  std::uint32_t nacks_sent_ = 0;
  std::uint32_t trims_seen_ = 0;
  std::uint16_t last_entropy_ = 0;
  bool retired_ = false;
  /// Stays with the record: a block timer still armed at completion fires
  /// later (and counts as an event) exactly as it would have.
  TagTimer block_timer_;
  TraceContext trace_;
};

class FlowSender final : public PacketSink, public EventHandler {
 public:
  /// With a `pool`, the engine (CC, LB, transmission records, delivery
  /// bitmap) lives on that slab pool and is recycled to it at completion.
  FlowSender(EventQueue& eq, const FlowParams& params, const PathSet* paths,
             FlowStack& stack, SlabPool* pool = nullptr);
  ~FlowSender() override;

  /// Start now if params.start_time has come (building the engine), else
  /// schedule the start event that will.
  void start();

  void receive(Packet&& p) override;  // ACKs and NACKs arrive here
  void on_event(std::uint64_t tag) override;
  bool event_stale(std::uint64_t tag) const override;
  /// "flowN.snd", built on demand (see flow_name()).
  const std::string& name() const override;

  // --- observability ---------------------------------------------------------
  const FlowParams& params() const { return params_; }
  /// The run-wide knobs, held by the flow's stack.
  const TransportParams& transport() const { return stack_->transport(); }
  const PathSet& paths() const { return *paths_; }
  /// Started and not yet complete: the engine (and with it cc()/lb())
  /// exists only then.
  bool live() const { return engine_ != nullptr; }
  CongestionControl& cc();
  const CongestionControl& cc() const;
  LoadBalancer& lb();
  bool done() const { return done_; }
  Time fct() const { return fct_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t acked_bytes() const { return acked_bytes_; }
  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t retransmits() const { return retransmits_; }
  std::uint64_t nacks_received() const { return nacks_received_; }
  /// Losses the erasure code absorbed: shards still marked lost at
  /// completion (their blocks decoded from parity, so no retransmission
  /// was ever needed). 0 until the flow completes, and for non-EC flows.
  std::uint64_t fec_masked() const { return fec_masked_; }
  /// Subflow reroutes by the load balancer (UnoLb only, else 0): read from
  /// the live LB, kept in the record once the flow completes.
  std::uint64_t reroutes() const;
  /// 0 unless live.
  std::int64_t bytes_in_flight() const;
  std::uint64_t total_packets() const {
    const TransportParams& t = transport();
    return BlockFrame::packets_for(params_.size_bytes, t.mtu, params_.ec_enabled, t.ec_data,
                                   t.ec_parity);
  }
  /// What the completion hook sees, built from the record (valid once done()).
  FlowResult result() const;

  /// Attach the whole sender stack (rtx/NACK instants here, cwnd trace in
  /// the CC, reroutes in the LB) to one flight-recorder component.
  void set_trace(TraceContext tc);

 private:
  class Engine;
  /// Event kinds in the low TagTimer::kKindBits of a tag. Start and pacing
  /// wakeups are scheduled against the record, so one that is still pending
  /// when the flow completes fires (and counts) exactly as it would have.
  enum : std::uint32_t { kTagStart = 1, kTagPacing = 2, kTagRto = 3 };

  /// Build the engine and send what the window allows.
  void launch();
  void destroy_engine();
  /// The message completed: fold the engine's final tallies into the
  /// record, recycle the engine and report to the stack. Called from inside
  /// an engine method, which must return without touching itself after.
  void complete();

  // Packet counters are 32-bit, as the receiver's; the first packs into
  // EventHandler's tail padding.
  std::uint32_t packets_sent_ = 0;
  EventQueue& eq_;
  FlowParams params_;
  const PathSet* paths_;
  FlowStack* stack_;
  SlabPool* pool_;
  Engine* engine_ = nullptr;  // null before start and after completion
  /// Verify mode only: shard bytes in-flight packets point into, so they
  /// stay with the record rather than the engine.
  struct Payload;
  std::unique_ptr<Payload> payload_;

  Time fct_ = -1;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t acked_bytes_ = 0;
  std::uint32_t retransmits_ = 0;
  std::uint32_t nacks_received_ = 0;
  std::uint32_t fec_masked_ = 0;
  std::uint32_t reroutes_ = 0;  // final count, set at completion
  bool done_ = false;
  TraceContext trace_;
};

/// One flow's record: matching sender/receiver, bound in the hosts' flow
/// table for the record's lifetime. Immovable (the table and event queues
/// hold its address); Experiment keeps records in chunked storage.
class Flow {
 public:
  Flow(EventQueue& eq, Host& src_host, Host& dst_host, const FlowParams& params,
       const PathSet* paths, FlowStack& stack);
  /// Sharded form: the sender lives on the source host's shard queue, the
  /// receiver on the destination host's (the same object when not sharding).
  /// Each endpoint's slab pool must belong to its own shard: each engine is
  /// built and recycled by the thread that runs its endpoint.
  Flow(EventQueue& snd_eq, EventQueue& rcv_eq, Host& src_host, Host& dst_host,
       const FlowParams& params, const PathSet* paths, FlowStack& stack,
       SlabPool* snd_pool = nullptr, SlabPool* rcv_pool = nullptr);
  ~Flow();

  Flow(const Flow&) = delete;
  Flow& operator=(const Flow&) = delete;

  void start() { sender_.start(); }
  FlowSender& sender() { return sender_; }
  const FlowSender& sender() const { return sender_; }
  FlowReceiver& receiver() { return receiver_; }

  /// Both endpoints share one trace component ("flow:N").
  void set_trace(TraceContext tc) {
    sender_.set_trace(tc);
    receiver_.set_trace(tc);
  }
  /// Sharded form: each endpoint emits into its own shard's tracer.
  void set_trace(TraceContext sender_tc, TraceContext receiver_tc) {
    sender_.set_trace(sender_tc);
    receiver_.set_trace(receiver_tc);
  }

 private:
  FlowSender sender_;  // first: the receiver reads the sender's params
  FlowReceiver receiver_;
  FlowTable& flows_;  // the hosts' demux table, bound for the record's life
};

}  // namespace uno
