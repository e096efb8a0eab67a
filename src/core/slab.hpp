// Size-classed slab recycling for per-flow transport state.
//
// A million-flow run creates and destroys flow state continuously; the
// default allocator handles that, but each create/destroy round trips
// through malloc for every flow engine, PktMeta array and delivery bitmap,
// and the blocks scatter across the heap. `SlabPool` carves blocks out of
// 16 KiB chunks and keeps freed blocks on per-size-class free lists, so
// steady-state flow churn recycles the same slabs instead of allocating:
// after warm-up, `acquires()` grows while `heap_allocs()` (chunks) stays
// flat — the same testable zero-allocation contract as the FEC ArenaPool
// (fec/arena.hpp). Size classes step by 16 bytes up to 1 KiB (a flow engine
// pays for its exact size, not the next power of two), then double. Blocks
// too big to carve pass straight through to the heap: a ring that doubles
// its way up would otherwise strand every smaller block it outgrew on a
// free list no other holder asks for.
//
// Not thread-safe by design: the experiment owns one pool per PDES shard.
// During a window only that shard's thread touches it (flow engines start
// and retire on the thread that owns their endpoint); between windows only
// the main thread does (a spawn whose start time has come builds its
// engine at once) — never two threads at a time.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
// Carved blocks are invisible to ASan's own redzones, so the pool poisons
// what no holder owns: a block used after release() still faults.
#define UNO_SLAB_POISON(p, n) ASAN_POISON_MEMORY_REGION((p), (n))
#define UNO_SLAB_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION((p), (n))
#else
#define UNO_SLAB_POISON(p, n) ((void)(p), (void)(n))
#define UNO_SLAB_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace uno {

class SlabPool {
 public:
  static constexpr std::size_t kGrain = 16;         // fine class step
  static constexpr std::size_t kFineLimit = 1024;   // fine classes up to here
  static constexpr std::size_t kChunkBytes = 16 * 1024;
  /// Blocks above this are plain heap allocations, freed on release, so a
  /// chunk's unusable tail stays under 1/8 of it.
  static constexpr std::size_t kCarveLimit = kChunkBytes / 8;

  SlabPool() = default;
  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;
  ~SlabPool() {
    for (const auto& [c, bytes] : chunks_) {
      UNO_SLAB_UNPOISON(c, bytes);
      ::operator delete(c);
    }
  }

  /// Round `bytes` up to its size class.
  static std::size_t block_size(std::size_t bytes) { return size_of(class_of(bytes)); }

  /// A block of at least `bytes` bytes (contents unspecified). The caller
  /// must release with the same `bytes` (or the rounded block_size).
  void* acquire(std::size_t bytes) {
    ++acquires_;
    const std::size_t cls = class_of(bytes);
    const std::size_t block = size_of(cls);
    live_bytes_ += block;
    if (live_bytes_ > peak_live_bytes_) peak_live_bytes_ = live_bytes_;
    if (block > kCarveLimit) {
      ++heap_allocs_;
      return ::operator new(block);
    }
    void* p;
    if (cls < free_.size() && free_[cls] != nullptr) {
      Free* f = free_[cls];
      UNO_SLAB_UNPOISON(f, sizeof(Free));
      free_[cls] = f->next;
      pooled_bytes_ -= block;
      p = f;
    } else {
      p = carve(block);
    }
    UNO_SLAB_UNPOISON(p, block);
    return p;
  }

  void release(void* p, std::size_t bytes) {
    if (p == nullptr) return;
    ++releases_;
    const std::size_t cls = class_of(bytes);
    const std::size_t block = size_of(cls);
    assert(live_bytes_ >= block);
    live_bytes_ -= block;
    if (block > kCarveLimit) {
      ::operator delete(p);
      return;
    }
    if (free_.size() <= cls) free_.resize(cls + 1, nullptr);
    // Intrusive free list: the link lives in the freed block itself, so
    // recycling never allocates.
    Free* f = ::new (p) Free{free_[cls]};
    free_[cls] = f;
    pooled_bytes_ += block;
    UNO_SLAB_POISON(p, block);
  }

  /// acquire()/release() for a whole object (a flow engine): also counted
  /// in live_objects()/peak_objects().
  void* acquire_object(std::size_t bytes) {
    if (++live_objects_ > peak_objects_) peak_objects_ = live_objects_;
    return acquire(bytes);
  }
  void release_object(void* p, std::size_t bytes) {
    assert(live_objects_ > 0);
    --live_objects_;
    release(p, bytes);
  }

  std::uint64_t acquires() const { return acquires_; }
  std::uint64_t releases() const { return releases_; }
  /// Heap allocations behind the pool: chunks, plus every acquire of a block
  /// too big to carve.
  std::uint64_t heap_allocs() const { return heap_allocs_; }
  /// Bytes currently handed out to live holders (size-class rounded).
  std::size_t live_bytes() const { return live_bytes_; }
  std::size_t peak_live_bytes() const { return peak_live_bytes_; }
  /// Bytes idle on the free lists, ready for reuse.
  std::size_t pooled_bytes() const { return pooled_bytes_; }
  std::size_t live_objects() const { return live_objects_; }
  std::size_t peak_objects() const { return peak_objects_; }

 private:
  struct Free {
    Free* next;
  };

  static std::size_t class_of(std::size_t bytes) {
    if (bytes <= kFineLimit) return bytes <= kGrain ? 0 : (bytes - 1) / kGrain;
    std::size_t cls = kFineLimit / kGrain - 1;
    for (std::size_t b = kFineLimit; b < bytes; b *= 2) ++cls;
    return cls;
  }
  static std::size_t size_of(std::size_t cls) {
    constexpr std::size_t kFine = kFineLimit / kGrain;
    return cls < kFine ? (cls + 1) * kGrain : kFineLimit << (cls - kFine + 1);
  }

  void* carve(std::size_t block) {
    if (static_cast<std::size_t>(chunk_end_ - cursor_) < block) {
      cursor_ = static_cast<unsigned char*>(new_chunk(kChunkBytes));
      chunk_end_ = cursor_ + kChunkBytes;
      UNO_SLAB_POISON(cursor_, kChunkBytes);
    }
    void* p = cursor_;
    cursor_ += block;
    return p;
  }

  void* new_chunk(std::size_t bytes) {
    ++heap_allocs_;
    void* c = ::operator new(bytes);
    chunks_.emplace_back(c, bytes);
    return c;
  }

  std::vector<Free*> free_;     // per size class
  /// Every chunk (address, bytes), freed on destruction.
  std::vector<std::pair<void*, std::size_t>> chunks_;
  unsigned char* cursor_ = nullptr;
  unsigned char* chunk_end_ = nullptr;
  std::uint64_t acquires_ = 0;
  std::uint64_t releases_ = 0;
  std::uint64_t heap_allocs_ = 0;
  std::size_t live_bytes_ = 0;
  std::size_t peak_live_bytes_ = 0;
  std::size_t pooled_bytes_ = 0;
  std::size_t live_objects_ = 0;
  std::size_t peak_objects_ = 0;
};

/// Storage from `pool`, or from the heap when there is none (direct
/// construction call sites without a pool keep working unchanged).
inline void* slab_acquire(SlabPool* pool, std::size_t bytes) {
  return pool != nullptr ? pool->acquire(bytes) : ::operator new(bytes);
}
inline void slab_release(SlabPool* pool, void* p, std::size_t bytes) {
  if (pool != nullptr)
    pool->release(p, bytes);
  else
    ::operator delete(p);
}

/// Fixed-size array of a trivially copyable T, backed by a SlabPool block
/// when a pool is supplied and plain heap otherwise (so direct-construction
/// call sites without a pool keep working unchanged). `release()` returns
/// the storage early — flows shed their per-packet state the moment the
/// message completes instead of holding it until destruction.
template <typename T>
class SlabVec {
  static_assert(std::is_trivially_copyable_v<T>, "SlabVec skips destruction");

 public:
  SlabVec() = default;
  SlabVec(SlabVec&& o) noexcept : data_(o.data_), n_(o.n_), pool_(o.pool_) {
    o.data_ = nullptr;
    o.n_ = 0;
  }
  SlabVec& operator=(SlabVec&& o) noexcept {
    release();
    data_ = o.data_;
    n_ = o.n_;
    pool_ = o.pool_;
    o.data_ = nullptr;
    o.n_ = 0;
    return *this;
  }
  SlabVec(const SlabVec&) = delete;
  SlabVec& operator=(const SlabVec&) = delete;
  ~SlabVec() { release(); }

  /// Size to `n` elements, each a copy of `v`.
  void assign(std::size_t n, const T& v, SlabPool* pool) {
    release();
    pool_ = pool;
    n_ = n;
    if (n == 0) return;
    data_ = static_cast<T*>(slab_acquire(pool_, n * sizeof(T)));
    for (std::size_t i = 0; i < n; ++i) data_[i] = v;
  }

  /// Return the storage to the pool (or heap). The vec reads as empty after.
  void release() {
    if (data_ == nullptr) return;
    slab_release(pool_, data_, n_ * sizeof(T));
    data_ = nullptr;
    n_ = 0;
  }

  std::size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  T& operator[](std::size_t i) {
    assert(i < n_);
    return data_[i];
  }
  const T& operator[](std::size_t i) const {
    assert(i < n_);
    return data_[i];
  }
  T* begin() { return data_; }
  T* end() { return data_ + n_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + n_; }

 private:
  T* data_ = nullptr;
  std::size_t n_ = 0;
  SlabPool* pool_ = nullptr;
};

/// Append-only sequence of immovable objects (flow records: event handlers
/// and host-registered sinks, so their addresses must never change), stored
/// kChunk to a block: n objects cost ceil(n / kChunk) allocations instead of
/// n, and chunk memory is left untouched until an object is built in it.
/// Objects are destroyed in order of construction.
template <typename T, std::size_t kChunk = 64>
class ChunkedVec {
 public:
  ChunkedVec() = default;
  ChunkedVec(const ChunkedVec&) = delete;
  ChunkedVec& operator=(const ChunkedVec&) = delete;
  ~ChunkedVec() { clear(); }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == chunks_.size() * kChunk) chunks_.emplace_back(new Chunk);
    T* p = ::new (slot(size_)) T(std::forward<Args>(args)...);
    ++size_;
    return *p;
  }

  T& operator[](std::size_t i) {
    assert(i < size_);
    return *std::launder(reinterpret_cast<T*>(slot(i)));
  }
  const T& operator[](std::size_t i) const {
    assert(i < size_);
    return *std::launder(reinterpret_cast<const T*>(slot(i)));
  }
  std::size_t size() const { return size_; }

  void clear() {
    for (std::size_t i = 0; i < size_; ++i) (*this)[i].~T();
    size_ = 0;
    chunks_.clear();
  }

 private:
  // Deliberately uninitialized storage: `new Chunk` default-initializes.
  struct Chunk {
    alignas(T) unsigned char bytes[kChunk * sizeof(T)];
  };
  void* slot(std::size_t i) const {
    return chunks_[i / kChunk]->bytes + (i % kChunk) * sizeof(T);
  }

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::size_t size_ = 0;
};

}  // namespace uno
