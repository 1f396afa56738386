// edp::net — the wire packet.
//
// A `Packet` is an owned byte buffer plus the intrinsic metadata a switch
// port attaches on arrival (timestamp, ingress port, unique trace id). All
// multi-byte accessors are big-endian, i.e. network order, so serialized
// buffers look exactly like real wire captures.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>

#include "sim/object_pool.hpp"
#include "sim/time.hpp"

namespace edp::net {

/// Process-wide counters for the pooled packet buffers (see packet.cpp).
/// `acquired` counts every buffer a packet took (construction, copy, or
/// growth past its capacity); `reused` the ones the pool served from a
/// recycled buffer or its reserved slab; `allocated` the misses — real
/// allocator traffic. Benches sample this before/after a timed phase to
/// assert the steady state runs at zero allocations per event.
sim::PoolStats packet_buffer_pool_stats();

/// Make sure the pool can serve `bytes` of packet buffers without touching
/// the allocator: counts the free buffers it already holds and reserves
/// one slab for the shortfall. The slab is carved lazily, so its untouched
/// pages cost address space, not resident memory. Topology set-up calls
/// this with the bound its queues and links can hold
/// (topo::Spec::packet_buffer_bound_bytes).
void reserve_packet_buffers(std::size_t bytes);

/// Intrinsic (non-programmable) packet metadata, set by the device.
struct PacketMeta {
  sim::Time arrival = sim::Time::zero();  ///< time the first bit arrived
  std::uint16_t ingress_port = 0;         ///< device port of arrival
  std::uint64_t trace_id = 0;             ///< unique id for tracing/tests
  std::uint8_t recirc_count = 0;          ///< times re-submitted to ingress
};

/// An owned, mutable packet. Cheap to move; copying duplicates the payload
/// (used for multicast/broadcast and control-plane punts).
///
/// The bytes live in one pooled buffer: the sized constructor draws a
/// recycled buffer and the destructor returns it, so in steady state packet
/// churn performs no heap allocation. Growth past the buffer's capacity
/// swaps in a larger pooled buffer, so the pool's counters see every
/// buffer a packet takes. A moved-from packet owns no buffer, and its
/// destructor is an inline no-op. Moves are noexcept (required by
/// sim::InlineCallback, which relocates the closures that capture packets).
class Packet {
 public:
  Packet() = default;
  /// An all-zero packet of `size` bytes (e.g. padding, carrier frames).
  explicit Packet(std::size_t size);
  /// A packet of `size` bytes with unspecified contents, for callers that
  /// write every byte themselves (template stamping, deparsing).
  static Packet uninitialized(std::size_t size);

  Packet(const Packet& o);
  Packet& operator=(const Packet& o);
  Packet(Packet&& o) noexcept
      : data_(o.data_), size_(o.size_), cap_(o.cap_), meta_(o.meta_) {
    o.data_ = nullptr;
    o.size_ = 0;
    o.cap_ = 0;
  }
  Packet& operator=(Packet&& o) noexcept {
    if (this != &o) {
      if (data_ != nullptr) {
        release();
      }
      data_ = o.data_;
      size_ = o.size_;
      cap_ = o.cap_;
      meta_ = o.meta_;
      o.data_ = nullptr;
      o.size_ = 0;
      o.cap_ = 0;
    }
    return *this;
  }
  ~Packet() {
    if (data_ != nullptr) {
      release();
    }
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  std::span<const std::uint8_t> bytes() const { return {data_, size_}; }
  std::span<std::uint8_t> bytes() { return {data_, size_}; }

  PacketMeta& meta() { return meta_; }
  const PacketMeta& meta() const { return meta_; }

  // ---- big-endian field accessors ----------------------------------------
  // All offsets are byte offsets from the start of the packet. Reads out of
  // range assert in debug builds and return 0 in release; writes out of
  // range assert and are dropped. Parsers must bounds-check with size().
  //
  // Defined inline: header encode/decode is a dense run of these, and the
  // compiler folds adjacent byte shuffles only when it can see the bodies.

  std::uint8_t u8(std::size_t off) const {
    if (off >= size_) {
      assert(false && "packet read out of range");
      return 0;
    }
    return data_[off];
  }

  std::uint16_t u16(std::size_t off) const {
    if (off + 2 > size_) {
      assert(false && "packet read out of range");
      return 0;
    }
    return static_cast<std::uint16_t>((data_[off] << 8) | data_[off + 1]);
  }

  std::uint32_t u32(std::size_t off) const {
    if (off + 4 > size_) {
      assert(false && "packet read out of range");
      return 0;
    }
    return (std::uint32_t{data_[off]} << 24) |
           (std::uint32_t{data_[off + 1]} << 16) |
           (std::uint32_t{data_[off + 2]} << 8) | data_[off + 3];
  }

  std::uint64_t u64(std::size_t off) const {
    if (off + 8 > size_) {
      assert(false && "packet read out of range");
      return 0;
    }
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      v = (v << 8) | data_[off + i];
    }
    return v;
  }

  void set_u8(std::size_t off, std::uint8_t v) {
    if (off >= size_) {
      assert(false && "packet write out of range");
      return;
    }
    data_[off] = v;
  }

  void set_u16(std::size_t off, std::uint16_t v) {
    if (off + 2 > size_) {
      assert(false && "packet write out of range");
      return;
    }
    data_[off] = static_cast<std::uint8_t>(v >> 8);
    data_[off + 1] = static_cast<std::uint8_t>(v);
  }

  void set_u32(std::size_t off, std::uint32_t v) {
    if (off + 4 > size_) {
      assert(false && "packet write out of range");
      return;
    }
    for (std::size_t i = 0; i < 4; ++i) {
      data_[off + i] = static_cast<std::uint8_t>(v >> (24 - 8 * i));
    }
  }

  void set_u64(std::size_t off, std::uint64_t v) {
    if (off + 8 > size_) {
      assert(false && "packet write out of range");
      return;
    }
    for (std::size_t i = 0; i < 8; ++i) {
      data_[off + i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
    }
  }

  /// Append raw bytes.
  void append(std::span<const std::uint8_t> data);
  /// Set the size to `size` bytes: bytes past the old size are zero, bytes
  /// past the new size are dropped.
  void resize(std::size_t size);
  /// Grow with zeros to at least `size` bytes.
  void pad_to(std::size_t size) {
    if (size_ < size) {
      resize(size);
    }
  }

  /// Drop the contents but keep the buffer (re-emit into the same storage).
  void clear() { size_ = 0; }
  /// Make room for `n` bytes up front, so a known-length emit takes at
  /// most one buffer.
  void reserve(std::size_t n) {
    if (n > cap_) {
      grow(n);
    }
  }

  /// Remove `n` bytes from the front (decapsulation). n > size() clears.
  void strip_front(std::size_t n);

  /// Insert `n` zero bytes at offset `off` (encapsulation, e.g. INT push).
  void insert_zeros(std::size_t off, std::size_t n);

 private:
  /// Return the buffer to the pool (data_ != nullptr).
  void release() noexcept;
  /// Move the contents into a pooled buffer of at least `cap` bytes.
  void grow(std::size_t cap);

  std::uint8_t* data_ = nullptr;
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = 0;
  PacketMeta meta_;
};

}  // namespace edp::net
