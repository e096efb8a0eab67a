// Contiguous power-of-two ring buffer for trivially copyable payloads.
//
// Queues and links push/pop one packet per simulated serialization or
// propagation event, so the FIFO is on the per-packet hot path. std::deque
// pays block-map indirection and boundary branches on every access; this
// ring is a single flat array with mask-wrapped indices, and because the
// element type is trivially copyable a pop is just an index bump (no
// destructor, no slot reset — stale bytes are unreachable and harmless).
//
// The backing store is left default-initialized: a std::vector would
// zero-fill every slot on construction and growth, a full pass over memory
// that is only ever read after being overwritten. Skipping it matters to the
// trace rings (obs/trace.hpp), where first-touch memory traffic is the
// dominant emit cost; reserve() exists for the same reason (pre-size once,
// no doubling copies on the hot path). A ring built with a SlabPool draws its
// store from that pool, so per-flow rings recycle instead of allocating.
#pragma once

#include <cassert>
#include <cstddef>
#include <type_traits>

#include "core/slab.hpp"

namespace uno {

namespace detail {

/// Positional insert and erase for the rings below: shift elements through
/// operator[], then grow or shrink at an end. `v` is taken by value because
/// it may alias an element.
template <typename Ring, typename T>
void ring_insert(Ring& r, std::size_t i, T v) {
  assert(i <= r.size());
  r.push_back(v);
  for (std::size_t j = r.size() - 1; j > i; --j) r[j] = r[j - 1];
  r[i] = v;
}

template <typename Ring>
void ring_erase(Ring& r, std::size_t i) {
  assert(i < r.size());
  if (i < r.size() / 2) {
    for (std::size_t j = i; j > 0; --j) r[j] = r[j - 1];
    r.pop_front();
  } else {
    for (std::size_t j = i; j + 1 < r.size(); ++j) r[j] = r[j + 1];
    r.pop_back();
  }
}

}  // namespace detail

template <typename T>
class PodRing {
  static_assert(std::is_trivially_copyable_v<T>,
                "PodRing skips initialization and destruction of slots");
  static_assert(alignof(T) <= 16, "slab and operator new blocks are 16-byte aligned");

 public:
  PodRing() = default;
  /// Storage from `pool` (the heap when null); the pool must outlive the ring.
  explicit PodRing(SlabPool* pool) : pool_(pool) {}
  ~PodRing() { release(); }
  PodRing(PodRing&& o) noexcept { steal(o); }
  PodRing& operator=(PodRing&& o) noexcept {
    if (this != &o) {
      release();
      steal(o);
    }
    return *this;
  }
  PodRing(const PodRing&) = delete;
  PodRing& operator=(const PodRing&) = delete;

  bool empty() const { return head_ == tail_; }
  std::size_t size() const { return tail_ - head_; }
  std::size_t capacity() const { return cap_; }

  T& front() { return buf_[head_ & mask_]; }
  const T& front() const { return buf_[head_ & mask_]; }
  T& back() { return buf_[(tail_ - 1) & mask_]; }

  /// i-th element from the front (0 == front()).
  T& operator[](std::size_t i) { return buf_[(head_ + i) & mask_]; }
  const T& operator[](std::size_t i) const { return buf_[(head_ + i) & mask_]; }

  void push_back(const T& v) {
    if (size() == cap_) grow(2 * cap_);
    buf_[tail_++ & mask_] = v;
  }

  template <typename... Args>
  void emplace_back(Args&&... args) {
    if (size() == cap_) grow(2 * cap_);
    buf_[tail_++ & mask_] = T{static_cast<Args&&>(args)...};
  }

  void pop_front() { ++head_; }
  void pop_back() { --tail_; }

  /// Insert `v` before the i-th element (i == size() appends), shifting the
  /// tail back: cheap near the back, where ordered inserts land.
  void insert(std::size_t i, T v) { detail::ring_insert(*this, i, v); }
  /// Remove the i-th element, shifting whichever side of it is shorter.
  void erase(std::size_t i) { detail::ring_erase(*this, i); }

  void clear() { head_ = tail_ = 0; }

  /// Drop the backing store entirely (clear() keeps it).
  void release() {
    if (buf_ != nullptr) slab_release(pool_, buf_, cap_ * sizeof(T));
    buf_ = nullptr;
    cap_ = mask_ = 0;
    head_ = tail_ = 0;
  }

  /// Pre-size the buffer to hold at least `n` elements (rounded up to a
  /// power of two). Untouched slots cost address space, not pages.
  void reserve(std::size_t n) {
    if (n > cap_) grow(n);
  }

 private:
  void grow(std::size_t at_least) {
    std::size_t next_cap = cap_ == 0 ? kInitialCapacity : cap_;
    while (next_cap < at_least) next_cap *= 2;
    const std::size_t n = size();
    // Raw storage of a trivial type: no zero-fill.
    T* next = static_cast<T*>(slab_acquire(pool_, next_cap * sizeof(T)));
    for (std::size_t i = 0; i < n; ++i) next[i] = buf_[(head_ + i) & mask_];
    if (buf_ != nullptr) slab_release(pool_, buf_, cap_ * sizeof(T));
    buf_ = next;
    cap_ = next_cap;
    mask_ = cap_ - 1;
    head_ = 0;
    tail_ = n;
  }

  void steal(PodRing& o) {
    buf_ = o.buf_;
    pool_ = o.pool_;
    cap_ = o.cap_;
    mask_ = o.mask_;
    head_ = o.head_;
    tail_ = o.tail_;
    o.buf_ = nullptr;
    o.cap_ = o.mask_ = 0;
    o.head_ = o.tail_ = 0;
  }

  static constexpr std::size_t kInitialCapacity = 16;  // power of two

  T* buf_ = nullptr;
  SlabPool* pool_ = nullptr;
  std::size_t cap_ = 0;
  std::size_t mask_ = 0;
  // Free-running indices; unsigned wraparound keeps tail_ - head_ == size
  // even across 2^64 pushes, and masking picks the slot.
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
};

/// A FIFO of trivially copyable T in fixed nodes of kNode elements, for
/// queues whose occupancy swings widely — a WAN channel holds a BDP of
/// packets at its peak and little otherwise. A PodRing would keep its
/// power-of-two peak for good; here memory follows occupancy a node at a
/// time, and up to a spare limit of drained nodes (kDefaultSpares unless
/// the constructor says otherwise) are kept for the next pushes, so steady
/// traffic allocates nothing (std::deque frees and reallocates a node every
/// few entries). Supports the same positional insert/erase.
template <typename T, std::size_t kNode = 32>
class NodeRing {
  static_assert(std::is_trivially_copyable_v<T>,
                "NodeRing skips initialization and destruction of slots");

 public:
  static constexpr std::size_t kDefaultSpares = 4;
  /// Spare limit that keeps every drained node until destruction.
  static constexpr std::size_t kKeepAll = static_cast<std::size_t>(-1);

  /// Keep up to `spare_limit` drained nodes for reuse.
  explicit NodeRing(std::size_t spare_limit = kDefaultSpares) : spare_limit_(spare_limit) {}
  ~NodeRing() {
    clear();
    for (std::size_t i = 0; i < spare_.size(); ++i) ::operator delete(spare_[i]);
  }
  NodeRing(const NodeRing&) = delete;
  NodeRing& operator=(const NodeRing&) = delete;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  T& front() { return (*this)[0]; }
  T& operator[](std::size_t i) {
    const std::size_t j = head_ + i;
    return map_[j / kNode][j % kNode];
  }

  void push_back(const T& v) {
    const std::size_t end = head_ + size_;
    if (end == map_.size() * kNode) map_.push_back(take_node());
    map_[end / kNode][end % kNode] = v;
    ++size_;
  }

  void pop_front() {
    assert(size_ > 0);
    --size_;
    if (++head_ == kNode) {
      drop_node(map_.front());
      map_.pop_front();
      head_ = 0;
    }
    if (size_ == 0) clear();
  }

  void pop_back() {
    assert(size_ > 0);
    --size_;
    if ((head_ + size_) % kNode == 0) {  // the back node just emptied
      drop_node(map_.back());
      map_.pop_back();
    }
    if (size_ == 0) clear();
  }

  /// Insert `v` before the i-th element (i == size() appends).
  void insert(std::size_t i, T v) { detail::ring_insert(*this, i, v); }
  /// Remove the i-th element, shifting whichever side of it is shorter.
  void erase(std::size_t i) { detail::ring_erase(*this, i); }

  /// Empty the ring, keeping every node for the refill (a staging buffer
  /// drained at each barrier refills to a similar size).
  void clear() {
    while (!map_.empty()) {
      spare_.push_back(map_.back());
      map_.pop_back();
    }
    head_ = size_ = 0;
  }

 private:
  T* take_node() {
    if (!spare_.empty()) {
      T* n = spare_.back();
      spare_.pop_back();
      return n;
    }
    return static_cast<T*>(::operator new(kNode * sizeof(T)));
  }
  /// A node a pop emptied: kept while fewer than spare_limit_ are, else
  /// freed, so a FIFO that drains gives its memory back.
  void drop_node(T* n) {
    if (spare_.size() < spare_limit_)
      spare_.push_back(n);
    else
      ::operator delete(n);
  }

  PodRing<T*> map_;    // the nodes, front to back
  PodRing<T*> spare_;  // drained nodes, kept for reuse
  std::size_t spare_limit_;
  std::size_t head_ = 0;  // front element's index in map_.front()
  std::size_t size_ = 0;
};

}  // namespace uno
