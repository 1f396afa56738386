#include "net/packet.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstring>
#include <mutex>
#include <new>
#include <vector>

namespace edp::net {

// ---- pooled packet buffers -------------------------------------------------
//
// Every simulated packet owns one raw byte buffer; at millions of packet
// events per second, allocating and freeing those buffers would be the
// dominant allocator traffic in the whole simulator. The pool recycles
// them. Buffers come in size classes (64-byte steps up to 2 KiB, then 4, 8
// and 16 KiB); a free buffer stores the freelist link in its own first
// bytes, so the pool itself never allocates. A thread-local cache serves
// the single-threaded fast path without synchronization, backed by a
// mutex-protected central pool that keeps everything returned to it —
// buffers survive the parallel runtime's worker threads and successive
// replays in one process. The central pool also owns reserved slabs
// (reserve_packet_buffers), carved into buffers on demand.
//
// An acquire takes the smallest free class that fits: first from the
// thread cache, then a batch from the central lists, then a carve from a
// reserved slab. Only when all three are empty does it allocate (counted
// in `allocated`).
//
// Stats are process-wide relaxed atomics — the hook behind
// packet_buffer_pool_stats(), which benches use to prove the steady state
// allocates nothing.

namespace {

constexpr std::size_t kStep = 64;
constexpr std::size_t kFineMax = 2048;
constexpr unsigned kFineClasses = kFineMax / kStep;     // 64 .. 2048
constexpr unsigned kNumClasses = kFineClasses + 3;      // 4K, 8K, 16K
constexpr std::size_t kMaxPooledCapacity = 16384;
static_assert(kNumClasses <= 64, "class mask is one word");

constexpr std::size_t kThreadCacheMax = 256;  ///< per class
constexpr std::size_t kRefillBatch = 64;
constexpr std::size_t kCarveBytes = 16384;    ///< per slab carve

/// Smallest class whose buffers hold `n` bytes (n <= kMaxPooledCapacity).
unsigned class_of(std::size_t n) {
  if (n <= kFineMax) {
    return n == 0 ? 0 : static_cast<unsigned>((n - 1) / kStep);
  }
  return kFineClasses +
         static_cast<unsigned>(std::bit_width((n - 1) / kFineMax) - 1);
}

std::size_t class_capacity(unsigned c) {
  return c < kFineClasses ? (c + 1) * kStep
                          : kFineMax << (c - kFineClasses + 1);
}

struct FreeNode {
  FreeNode* next;
};

/// Singly linked LIFO of free buffers of one class.
struct FreeList {
  FreeNode* head = nullptr;
  FreeNode* tail = nullptr;
  std::size_t count = 0;

  void push(std::uint8_t* buf) {
    auto* n = ::new (static_cast<void*>(buf)) FreeNode{head};
    head = n;
    if (tail == nullptr) {
      tail = n;
    }
    ++count;
  }
  std::uint8_t* pop() {
    FreeNode* n = head;
    head = n->next;
    if (head == nullptr) {
      tail = nullptr;
    }
    --count;
    return reinterpret_cast<std::uint8_t*>(n);
  }
  /// Prepend all of `o` in O(1) and leave it empty.
  void splice(FreeList& o) {
    if (o.head == nullptr) {
      return;
    }
    o.tail->next = head;
    head = o.head;
    if (tail == nullptr) {
      tail = o.tail;
    }
    count += o.count;
    o = FreeList{};
  }
};

/// One bucket of size-classed freelists plus a mask of the non-empty ones.
struct Buckets {
  std::array<FreeList, kNumClasses> lists{};
  std::uint64_t nonempty = 0;
  std::size_t free_bytes = 0;

  /// First non-empty class >= c, or kNumClasses.
  unsigned first_fit(unsigned c) const {
    const std::uint64_t m = nonempty >> c;
    return m == 0 ? kNumClasses
                  : c + static_cast<unsigned>(std::countr_zero(m));
  }
  void push(unsigned c, std::uint8_t* buf) {
    lists[c].push(buf);
    nonempty |= std::uint64_t{1} << c;
    free_bytes += class_capacity(c);
  }
  std::uint8_t* pop(unsigned c) {
    std::uint8_t* b = lists[c].pop();
    if (lists[c].count == 0) {
      nonempty &= ~(std::uint64_t{1} << c);
    }
    free_bytes -= class_capacity(c);
    return b;
  }
  void take_all(unsigned c, FreeList& out) {
    free_bytes -= lists[c].count * class_capacity(c);
    out.splice(lists[c]);
    nonempty &= ~(std::uint64_t{1} << c);
  }
  void give_all(unsigned c, FreeList& in) {
    if (in.count == 0) {
      return;
    }
    free_bytes += in.count * class_capacity(c);
    lists[c].splice(in);
    nonempty |= std::uint64_t{1} << c;
  }
};

struct Counters {
  std::atomic<std::uint64_t> acquired{0};
  std::atomic<std::uint64_t> reused{0};
  std::atomic<std::uint64_t> allocated{0};
  std::atomic<std::uint64_t> released{0};
  std::atomic<std::uint64_t> dropped{0};
};
Counters& counters() {
  static Counters c;
  return c;
}

inline void bump(std::atomic<std::uint64_t>& c) {
  c.fetch_add(1, std::memory_order_relaxed);
}

class CentralPool {
 public:
  /// Move free buffers of the smallest class >= c into `tc`: a batch from
  /// the central lists, else one carve from a reserved slab. False when
  /// the pool has nothing that fits.
  bool refill(Buckets& tc, unsigned c);

  /// Take a thread cache's whole list of class c (overflow, thread exit).
  void absorb(Buckets& tc, unsigned c) {
    FreeList all;
    tc.take_all(c, all);
    std::lock_guard<std::mutex> lock(mu_);
    buckets_.give_all(c, all);
  }

  void reserve(std::size_t bytes, std::size_t cached_by_caller);

 private:
  struct Slab {
    std::uint8_t* next;
    std::uint8_t* end;
  };

  std::mutex mu_;
  Buckets buckets_;
  std::vector<Slab> slabs_;  ///< reserved regions not yet carved
};

// Intentionally leaked: threads (the main thread included) flush their
// caches here from thread_local destructors, whose order relative to
// static destruction is unsequenced — a never-destroyed pool is immune.
CentralPool& central() {
  static CentralPool* pool = new CentralPool;
  return *pool;
}

struct ThreadCache {
  Buckets buckets;
  ~ThreadCache() {
    for (unsigned c = 0; c < kNumClasses; ++c) {
      central().absorb(buckets, c);
    }
  }
};
thread_local ThreadCache t_cache;

bool CentralPool::refill(Buckets& tc, unsigned c) {
  std::lock_guard<std::mutex> lock(mu_);
  const unsigned k = buckets_.first_fit(c);
  if (k < kNumClasses) {
    for (std::size_t i = 0; i < kRefillBatch && buckets_.lists[k].count > 0;
         ++i) {
      tc.push(k, buckets_.pop(k));
    }
    return true;
  }
  // Carve from the newest slab; exhausted slabs are dropped from the list
  // (their buffers live on in the freelists).
  const std::size_t cap = class_capacity(c);
  while (!slabs_.empty()) {
    Slab& s = slabs_.back();
    const auto left = static_cast<std::size_t>(s.end - s.next);
    if (left >= cap) {
      const std::size_t n = std::max<std::size_t>(
          1, std::min(left, kCarveBytes) / cap);
      for (std::size_t i = 0; i < n; ++i) {
        tc.push(c, s.next);
        s.next += cap;
      }
      return true;
    }
    slabs_.pop_back();
  }
  return false;
}

void CentralPool::reserve(std::size_t bytes, std::size_t cached_by_caller) {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t have = buckets_.free_bytes + cached_by_caller;
  for (const Slab& s : slabs_) {
    have += static_cast<std::size_t>(s.end - s.next);
  }
  if (have >= bytes) {
    return;
  }
  const std::size_t want = bytes - have;
  auto* base = static_cast<std::uint8_t*>(
      ::operator new(want, std::align_val_t{kStep}));  // hotpath-ok: set-up
  slabs_.push_back(Slab{base, base + want});
}

/// A buffer holding at least `size` bytes; `cap` receives its capacity.
/// Contents are unspecified.
std::uint8_t* acquire_buffer(std::size_t size, std::uint32_t& cap) {
  ThreadCache& tc = t_cache;
  bump(counters().acquired);
  if (size > kMaxPooledCapacity) {
    // Pathological one-off sizes bypass the pool so they never pin memory.
    bump(counters().allocated);
    cap = static_cast<std::uint32_t>(size);
    return static_cast<std::uint8_t*>(
        ::operator new(size, std::align_val_t{kStep}));  // hotpath-ok: >16K
  }
  const unsigned c = class_of(size);
  unsigned k = tc.buckets.first_fit(c);
  if (k == kNumClasses && central().refill(tc.buckets, c)) {
    k = tc.buckets.first_fit(c);
  }
  if (k < kNumClasses) {
    bump(counters().reused);
    cap = static_cast<std::uint32_t>(class_capacity(k));
    return tc.buckets.pop(k);
  }
  bump(counters().allocated);
  cap = static_cast<std::uint32_t>(class_capacity(c));
  return static_cast<std::uint8_t*>(
      ::operator new(cap, std::align_val_t{kStep}));  // hotpath-ok: pool miss
}

void release_buffer(std::uint8_t* buf, std::size_t cap) {
  ThreadCache& tc = t_cache;
  if (cap > kMaxPooledCapacity) {
    bump(counters().dropped);
    ::operator delete(buf, std::align_val_t{kStep});
    return;
  }
  bump(counters().released);
  const unsigned c = class_of(cap);
  tc.buckets.push(c, buf);
  if (tc.buckets.lists[c].count > kThreadCacheMax) {
    central().absorb(tc.buckets, c);
  }
}

}  // namespace

sim::PoolStats packet_buffer_pool_stats() {
  const Counters& c = counters();
  sim::PoolStats s;
  s.acquired = c.acquired.load(std::memory_order_relaxed);
  s.reused = c.reused.load(std::memory_order_relaxed);
  s.allocated = c.allocated.load(std::memory_order_relaxed);
  s.released = c.released.load(std::memory_order_relaxed);
  s.dropped = c.dropped.load(std::memory_order_relaxed);
  return s;
}

void reserve_packet_buffers(std::size_t bytes) {
  central().reserve(bytes, t_cache.buckets.free_bytes);
}

Packet::Packet(std::size_t size) : Packet(uninitialized(size)) {
  std::memset(data_, 0, size_);
}

Packet Packet::uninitialized(std::size_t size) {
  Packet p;
  p.data_ = acquire_buffer(size, p.cap_);
  p.size_ = static_cast<std::uint32_t>(size);
  return p;
}

Packet::Packet(const Packet& o) : Packet(uninitialized(o.size_)) {
  meta_ = o.meta_;
  if (size_ != 0) {
    std::memcpy(data_, o.data_, size_);
  }
}

Packet& Packet::operator=(const Packet& o) {
  if (this != &o) {
    if (cap_ < o.size_) {
      *this = Packet(o);
      return *this;
    }
    size_ = o.size_;
    if (size_ != 0) {
      std::memcpy(data_, o.data_, size_);
    }
    meta_ = o.meta_;
  }
  return *this;
}

void Packet::release() noexcept {
  release_buffer(data_, cap_);
  data_ = nullptr;
  size_ = 0;
  cap_ = 0;
}

void Packet::grow(std::size_t cap) {
  std::uint32_t new_cap = 0;
  std::uint8_t* buf = acquire_buffer(cap, new_cap);
  if (size_ != 0) {
    std::memcpy(buf, data_, size_);
  }
  const std::uint32_t size = size_;
  if (data_ != nullptr) {
    release();
  }
  data_ = buf;
  size_ = size;
  cap_ = new_cap;
}

void Packet::append(std::span<const std::uint8_t> data) {
  if (data.empty()) {
    return;
  }
  const std::size_t off = size_;
  if (off + data.size() > cap_) {
    grow(off + data.size());
  }
  std::memcpy(data_ + off, data.data(), data.size());
  size_ = static_cast<std::uint32_t>(off + data.size());
}

void Packet::resize(std::size_t size) {
  if (size > cap_) {
    grow(size);
  }
  if (size > size_) {
    std::memset(data_ + size_, 0, size - size_);
  }
  size_ = static_cast<std::uint32_t>(size);
}

void Packet::strip_front(std::size_t n) {
  if (n >= size_) {
    size_ = 0;
    return;
  }
  std::memmove(data_, data_ + n, size_ - n);
  size_ -= static_cast<std::uint32_t>(n);
}

void Packet::insert_zeros(std::size_t off, std::size_t n) {
  assert(off <= size_);
  const std::size_t tail = size_ - off;
  resize(size_ + n);
  std::memmove(data_ + off + n, data_ + off, tail);
  std::memset(data_ + off, 0, n);
}

}  // namespace edp::net
