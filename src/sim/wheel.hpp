// edp::sim — near-horizon timing-wheel tier of the event kernel.
//
// A flat, non-lapping wheel: 2^12 buckets, each covering one
// resolution-quantized tick (default 2^19 ps ≈ 524 ns), for a horizon of
// ~2.1 ms past the cursor — wide enough for every rate-based app period
// (policer refill 100 µs, liveness check 500 µs, AQM update 1 ms). The
// scheduler keeps every pending entry whose tick lands inside
// [cursor, cursor + kSlots) here and spills the far future to its 4-ary
// heap; as the cursor advances, heap entries whose tick has come within
// the horizon cascade into the wheel.
//
// Buckets are chains of fixed-size chunks drawn from one shared chunk
// arena: inserts into a dense bucket append contiguously within a chunk
// (mod_timer-style reset churn lands whole cancel/re-arm batches in one
// bucket), and a drain copies kChunkEntries entries per dependent load.
// Drained chunks return to the arena's freelist, so the arena only grows
// when the number of pending entries reaches a new high — per-bucket
// vectors would instead each grow the first time *their* bucket sees a
// bigger burst, long after warmup.
//
// Exactness: buckets hold full-precision (when, seq) keys — quantization
// only decides *where* an entry is stored, never *when* it fires. The
// scheduler drains one bucket at a time into a POD scratch burst and
// sorts it by (when, seq), so the fire order is identical to the heap's
// total order and determinism digests are unchanged (docs/PERFORMANCE.md).
//
// Within the horizon, slot index = tick & kMask is a bijection, so a
// bucket never mixes entries from different laps and insert/expire are
// O(1) plus an occupancy-bitmap bit flip.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/time.hpp"

namespace edp::sim {

/// Pending-event key: full-precision fire time, global sequence tie-break,
/// and a generation-tagged callback-slot reference. 24-byte POD shared by
/// the wheel buckets, the overflow heap, and the fire-burst scratch.
struct QueueEntry {
  Time when;
  std::uint64_t seq;   ///< monotonic tie-break: FIFO among same-time events
  std::uint32_t slot;
  std::uint32_t gen;
};

inline bool entry_earlier(const QueueEntry& a, const QueueEntry& b) {
  if (a.when != b.when) {
    return a.when < b.when;
  }
  return a.seq < b.seq;
}

/// Functor form for std::sort: inlines per-comparison, unlike passing
/// `entry_earlier` itself (a function pointer → indirect call each compare).
struct EntryEarlier {
  bool operator()(const QueueEntry& a, const QueueEntry& b) const {
    return entry_earlier(a, b);
  }
};

class WheelTier {
 public:
  static constexpr unsigned kDefaultResBits = 19;  ///< 524.288 ns per tick
  static constexpr std::size_t kSlotBits = 12;
  static constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;
  static constexpr std::size_t kMask = kSlots - 1;
  static constexpr std::size_t kWords = kSlots / 64;  ///< occupancy bitmap

  explicit WheelTier(unsigned res_bits = kDefaultResBits)
      : res_bits_(res_bits) {}

  /// Quantize an absolute time to its wheel tick.
  std::uint64_t tick_of(Time t) const {
    return static_cast<std::uint64_t>(t.ps()) >> res_bits_;
  }

  std::uint64_t cursor() const { return cursor_; }
  std::size_t count() const { return count_; }

  /// True iff `tick` lands inside the wheel horizon. Pre: tick >= cursor().
  bool covers(std::uint64_t tick) const { return tick - cursor_ < kSlots; }

  /// Advance the cursor. Pre: no occupied bucket in [cursor(), tick) — the
  /// scheduler drains buckets strictly in tick order before moving on.
  void set_cursor(std::uint64_t tick) {
    assert(tick >= cursor_);
    cursor_ = tick;
  }

  /// O(1) amortized insert. Pre: cursor() <= tick && covers(tick).
  void insert(std::uint64_t tick, const QueueEntry& e) {
    assert(tick >= cursor_ && covers(tick));
    ensure_init();
    const std::size_t s = tick & kMask;
    Bucket& b = buckets_[s];
    if (b.tail == kNil || chunks_[b.tail].n == kChunkEntries) {
      const std::uint32_t c = new_chunk();
      if (b.tail == kNil) {
        b.head = c;
      } else {
        chunks_[b.tail].next = c;
      }
      b.tail = c;
    }
    Chunk& t = chunks_[b.tail];
    t.entries[t.n++] = e;
    words_[s >> 6] |= std::uint64_t{1} << (s & 63);
    ++count_;
  }

  bool bucket_nonempty(std::uint64_t tick) const {
    if (count_ == 0) {
      return false;
    }
    const std::size_t s = tick & kMask;
    return (words_[s >> 6] >> (s & 63)) & 1;
  }

  /// Visit every entry in a bucket read-only (for stale-entry scans).
  /// Pre: initialized, which count() > 0 guarantees.
  template <typename F>
  void visit_bucket(std::uint64_t tick, F&& f) const {
    for (std::uint32_t c = buckets_[tick & kMask].head; c != kNil;
         c = chunks_[c].next) {
      const Chunk& k = chunks_[c];
      for (std::uint32_t i = 0; i < k.n; ++i) {
        f(k.entries[i]);
      }
    }
  }

  /// Append the bucket's entries to `out` and empty it; its chunks return
  /// to the arena. Returns the entry count.
  std::size_t take_bucket(std::uint64_t tick, std::vector<QueueEntry>& out) {
    assert(covers(tick));
    const std::size_t s = tick & kMask;
    std::size_t n = 0;
    for (std::uint32_t c = buckets_[s].head; c != kNil; c = chunks_[c].next) {
      const Chunk& k = chunks_[c];
      // hotpath-ok: the scratch burst keeps its capacity across ticks
      out.insert(out.end(), k.entries, k.entries + k.n);
      n += k.n;
    }
    free_bucket(s);
    count_ -= n;
    return n;
  }

  /// Drop every entry in a bucket (all known stale).
  void clear_bucket(std::uint64_t tick) {
    const std::size_t s = tick & kMask;
    for (std::uint32_t c = buckets_[s].head; c != kNil; c = chunks_[c].next) {
      count_ -= chunks_[c].n;
    }
    free_bucket(s);
  }

  /// Earliest occupied tick at or after the cursor; nullopt when empty.
  /// Bitmap scan: one countr_zero per 64 buckets, so <= 64 words total.
  std::optional<std::uint64_t> next_occupied_tick() const {
    if (count_ == 0) {
      return std::nullopt;
    }
    const std::size_t sc = cursor_ & kMask;
    std::size_t w = sc >> 6;
    std::uint64_t word = words_[w] & (~std::uint64_t{0} << (sc & 63));
    for (std::size_t step = 0;; ++step) {
      if (word != 0) {
        const std::size_t s =
            (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
        return cursor_ + ((s - sc) & kMask);
      }
      if (step == kWords) {
        break;
      }
      w = (w + 1) & (kWords - 1);
      word = words_[w];
      if (step == kWords - 1) {
        // Wrapped back to the start word: only its low bits remain unseen.
        word &= ~(~std::uint64_t{0} << (sc & 63));
      }
    }
    assert(false && "count_ > 0 but no occupancy bit set");
    return std::nullopt;
  }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  static constexpr std::uint32_t kChunkEntries = 8;

  struct Chunk {
    QueueEntry entries[kChunkEntries];
    std::uint32_t n = 0;
    std::uint32_t next = kNil;
  };
  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  void ensure_init() {
    if (buckets_.empty()) {
      buckets_.resize(kSlots);
      words_.assign(kWords, 0);
    }
  }

  std::uint32_t new_chunk() {
    std::uint32_t c = free_chunk_;
    if (c != kNil) {
      free_chunk_ = chunks_[c].next;
      chunks_[c].n = 0;
      chunks_[c].next = kNil;
    } else {
      c = static_cast<std::uint32_t>(chunks_.size());
      chunks_.emplace_back();  // hotpath-ok: grows only at a new high-water
    }
    return c;
  }

  /// Return bucket s's chunk chain to the freelist and mark it empty.
  void free_bucket(std::size_t s) {
    Bucket& b = buckets_[s];
    if (b.head != kNil) {
      chunks_[b.tail].next = free_chunk_;
      free_chunk_ = b.head;
    }
    b = Bucket{};
    words_[s >> 6] &= ~(std::uint64_t{1} << (s & 63));
  }

  unsigned res_bits_;
  std::uint64_t cursor_ = 0;  ///< ticks < cursor_ are in the past
  std::size_t count_ = 0;
  std::vector<Bucket> buckets_;  ///< lazily sized to kSlots
  std::vector<Chunk> chunks_;    ///< the shared chunk arena
  std::uint32_t free_chunk_ = kNil;
  std::vector<std::uint64_t> words_;  ///< bit set ⟺ bucket nonempty
};

}  // namespace edp::sim
