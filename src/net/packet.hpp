// Packet representation and source routing.
//
// Packets are plain values moved hop-to-hop; a `Route` is a pre-computed
// sequence of `PacketSink*` (one port per adjacency, and finally an
// endpoint), in the style of htsim's source routing. Data, ACK and NACK
// packets share one struct so ports stay type-agnostic.
#pragma once

#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <string>

#include "core/slab.hpp"
#include "sim/time.hpp"

namespace uno {

struct Packet;

/// Anything a packet can be handed to: a port or an endpoint.
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void receive(Packet&& p) = 0;
  /// Take a packet parked in a block of `pool` (park_packet below), with the
  /// block. The default copies it out to receive() and releases the block;
  /// ports keep the block, so a packet crosses the fabric in one block and
  /// each hop passes a pointer.
  virtual void receive_parked(Packet* p, SlabPool* pool);
  /// Human-readable name for traces and assertions.
  virtual const std::string& name() const = 0;
};

/// The hop sequence of one route. Two storage modes behind one interface:
///
///  * owning — small-buffer storage (4 inline slots, heap beyond) with
///    push_back / initializer-list assignment. What tests and ad-hoc route
///    construction use; behaves like a small vector.
///  * bound — a non-owning view over hop storage packed by the flyweight
///    path store (topo/pathgen.hpp), where every route of a host pair
///    shares one contiguous PacketSink* slab instead of owning a heap
///    allocation per route.
///
/// The hot path (`forward()` below) is identical for both: one pointer
/// indexed load.
class HopList {
 public:
  HopList() = default;
  HopList(std::initializer_list<PacketSink*> l) { assign(l.begin(), l.size()); }
  HopList& operator=(std::initializer_list<PacketSink*> l) {
    assign(l.begin(), l.size());
    return *this;
  }
  HopList(const HopList& o) { assign(o.data_, o.n_); }
  HopList& operator=(const HopList& o) {
    if (this != &o) assign(o.data_, o.n_);
    return *this;
  }
  HopList(HopList&& o) noexcept { steal(o); }
  HopList& operator=(HopList&& o) noexcept {
    if (this != &o) {
      drop();
      steal(o);
    }
    return *this;
  }
  ~HopList() { drop(); }

  /// Rebind to externally owned hop storage (flyweight mode). The storage
  /// must outlive this list; the previous owned storage is freed.
  void bind(PacketSink* const* hops, std::uint16_t n) {
    drop();
    data_ = const_cast<PacketSink**>(hops);
    n_ = n;
    cap_ = 0;  // 0 marks the non-owning view
  }

  void push_back(PacketSink* s) {
    assert(cap_ != 0 && "cannot grow a bound (flyweight) hop list");
    if (n_ == cap_) grow();
    data_[n_++] = s;
  }

  std::size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  PacketSink* operator[](std::size_t i) const {
    assert(i < n_);
    return data_[i];
  }
  PacketSink* back() const {
    assert(n_ > 0);
    return data_[n_ - 1];
  }
  PacketSink* const* begin() const { return data_; }
  PacketSink* const* end() const { return data_ + n_; }

 private:
  static constexpr std::uint16_t kInline = 4;

  void assign(PacketSink* const* hops, std::size_t n) {
    drop();
    if (n > cap_) {
      data_ = new PacketSink*[n];
      cap_ = static_cast<std::uint16_t>(n);
    }
    n_ = static_cast<std::uint16_t>(n);
    for (std::size_t i = 0; i < n; ++i) data_[i] = hops[i];
  }

  void steal(HopList& o) {
    if (o.data_ == o.inline_) {
      data_ = inline_;
      n_ = o.n_;
      cap_ = kInline;
      for (std::uint16_t i = 0; i < n_; ++i) inline_[i] = o.inline_[i];
    } else {
      data_ = o.data_;
      n_ = o.n_;
      cap_ = o.cap_;
    }
    o.data_ = o.inline_;
    o.n_ = 0;
    o.cap_ = kInline;
  }

  void grow() {
    const std::uint16_t next = static_cast<std::uint16_t>(cap_ * 2);
    PacketSink** bigger = new PacketSink*[next];
    for (std::uint16_t i = 0; i < n_; ++i) bigger[i] = data_[i];
    drop();
    data_ = bigger;
    cap_ = next;
  }

  /// Free owned heap storage and fall back to the inline buffer.
  void drop() {
    if (cap_ > kInline) delete[] data_;
    data_ = inline_;
    n_ = 0;
    cap_ = kInline;
  }

  PacketSink** data_ = inline_;
  std::uint16_t n_ = 0;
  std::uint16_t cap_ = kInline;
  PacketSink* inline_[kInline];
};

/// A unidirectional source route: every sink the packet traverses, ending
/// at the destination endpoint. Routes are owned by the topology's path
/// tables and referenced (not copied) by packets.
struct Route {
  HopList hops;
  /// Index of this route within its (src,dst) path set; used by load
  /// balancers to reason about path identity.
  std::uint16_t path_id = 0;

  std::size_t size() const { return hops.size(); }
};

enum class PacketType : std::uint8_t {
  kData = 0,
  kAck = 1,
  kNack = 2,      // EC block reassembly failed; retransmit the block
  kTrimNack = 3,  // a specific data packet was trimmed (dropped) in-network
  kQcn = 4,       // Annulus-style near-source congestion notification
};

/// Flow-scope constants shared between sender and receiver.
inline constexpr std::uint32_t kAckSize = 64;   // bytes per ACK/NACK
inline constexpr std::uint32_t kTrimSize = 64;  // header left after trimming

/// Fields are ordered by alignment (8-byte words, then 4/2/1-byte members)
/// rather than by topic: packets are moved by value on every hop, so the
/// struct is kept free of padding holes (88 bytes instead of the 112 a
/// topic-grouped layout costs). The comment groups below still mark the
/// logical clusters.
struct Packet {
  // --- 8-byte members -------------------------------------------------------
  std::uint64_t flow_id = 0;  // identity
  std::uint64_t seq = 0;      // data: packet sequence number within the flow
  Time sent_time = 0;         // sender timestamp, echoed back in ACKs for RTT
  /// Real shard bytes when payload verification is on (see fec/payload.hpp):
  /// exactly the flow's payload_shard_bytes of them (both endpoints know the
  /// length, so the packet carries only the pointer). Owned by the sender's
  /// PayloadStore slab, which outlives every packet of the flow — including
  /// late duplicates still sitting in queues after the block completed;
  /// trimming nulls it (the payload is what trimming discards).
  const std::uint8_t* payload = nullptr;
  std::uint64_t ack_seq = 0;   // ACK: sequence number being acknowledged
  Time echo_sent_time = 0;     // ACK: sender timestamp echoed back
  const Route* route = nullptr;  // source routing

  // --- 4-byte members -------------------------------------------------------
  std::uint32_t size = 0;        // bytes on the wire
  std::int32_t src_host = -1;    // sending host (QCN feedback addressing)
  std::uint32_t block_id = 0;    // EC framing: which block the packet belongs to
  std::uint32_t nack_block = 0;  // NACK: block to retransmit

  // --- 2-byte members -------------------------------------------------------
  std::uint16_t entropy = 0;  // path index selected by the load balancer
  std::uint16_t hop = 0;      // next index into route->hops

  // --- 1-byte members -------------------------------------------------------
  PacketType type = PacketType::kData;
  bool retransmit = false;
  bool ecn_capable = true;
  bool ecn_ce = false;          // congestion-experienced mark (set by queues)
  bool trimmed = false;         // payload discarded by an overflowing queue
  std::uint8_t subflow = 0;     // UnoLB subflow slot this packet was sent on
  std::uint8_t shard = 0;       // EC framing: index within the block [0, n)
  bool is_parity = false;
  bool ecn_echo = false;        // ACK: CE state of the acked data packet
  std::uint8_t ack_subflow = 0; // ACK: subflow of the acked data packet
};
static_assert(sizeof(Packet) == 88, "keep the hop-to-hop payload free of padding holes");

/// Hand the packet to its next hop. The caller must ensure the route has
/// remaining hops (endpoints never call this).
inline void forward(Packet&& p) {
  PacketSink* next = p.route->hops[p.hop];
  ++p.hop;
  next->receive(std::move(p));
}

/// A packet in the fabric (waiting in a queue lane or propagating on a
/// wire) lives in a block of its shard's packet pool, and ports hold only
/// the pointer: the fabric pays for the packets that exist, not for every
/// port's peak (DESIGN.md §9). Ports built without a pool park on the heap.
inline Packet* park_packet(SlabPool* pool, Packet&& p) {
  return ::new (slab_acquire(pool, sizeof(Packet))) Packet(std::move(p));
}
/// Return a parked packet's block.
static_assert(std::is_trivially_destructible_v<Packet>, "a released block is never destroyed");
inline void release_packet(SlabPool* pool, Packet* p) {
  slab_release(pool, p, sizeof(Packet));
}

/// `p`, parked in `from`, as a block of `to`: the same block when the pools
/// match (ports of one shard), else a copy, with p's block released.
inline Packet* adopt_packet(Packet* p, SlabPool* from, SlabPool* to) {
  if (from == to) return p;
  Packet* own = park_packet(to, std::move(*p));
  release_packet(from, p);
  return own;
}

inline void PacketSink::receive_parked(Packet* p, SlabPool* pool) {
  receive(std::move(*p));
  release_packet(pool, p);
}

/// Hand a parked packet, block and all, to its next hop.
inline void forward_parked(Packet* p, SlabPool* pool) {
  PacketSink* next = p->route->hops[p->hop];
  ++p->hop;
  next->receive_parked(p, pool);
}

/// Build a data packet skeleton (sender fills CC/EC fields).
Packet make_data_packet(std::uint64_t flow_id, std::uint64_t seq, std::uint32_t size);

/// Build the ACK for `data`, to be sent on `reverse`.
Packet make_ack_packet(const Packet& data, const Route* reverse);

/// Build a NACK requesting retransmission of `block_id`.
Packet make_nack_packet(std::uint64_t flow_id, std::uint32_t block_id, const Route* reverse);

/// Build the per-packet loss notification for a trimmed data packet.
Packet make_trim_nack_packet(const Packet& trimmed_data, const Route* reverse);

}  // namespace uno
