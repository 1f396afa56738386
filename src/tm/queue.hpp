// edp::tm_ — packet queues.
//
// Queues are where the paper's enqueue/dequeue/overflow/underflow events
// originate. A queued packet carries the dequeue-event metadata that the
// ingress program attached (the paper's `deq_meta`), so the traffic manager
// can fire a dequeue event with program-defined content without re-parsing.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "net/packet.hpp"
#include "sim/ring_queue.hpp"
#include "sim/time.hpp"

namespace edp::tm_ {

/// Event metadata words a program attaches to a packet for the enqueue /
/// dequeue handlers (the paper's enq_meta / deq_meta structs).
using EventMetaWords = std::array<std::uint64_t, 4>;

/// A packet resident in a queue.
struct QueuedPacket {
  net::Packet packet;
  sim::Time enqueue_time = sim::Time::zero();
  EventMetaWords deq_meta{};  ///< delivered with the dequeue event
  std::uint64_t rank = 0;     ///< PIFO scheduling rank (ignored by FIFOs)
};

/// Admission/occupancy limits for one queue.
struct QueueLimits {
  std::size_t max_packets = 1024;
  std::size_t max_bytes = 512 * 1024;
};

/// Running statistics for one queue.
struct QueueStats {
  std::uint64_t enqueued = 0;
  std::uint64_t dequeued = 0;
  std::uint64_t dropped = 0;  ///< rejected at admission (tail drop)
  std::size_t max_depth_bytes = 0;
  std::size_t max_depth_packets = 0;
};

/// Abstract packet queue. Implementations: FifoQueue, PifoQueue.
class PacketQueue {
 public:
  explicit PacketQueue(QueueLimits limits) : limits_(limits) {}
  virtual ~PacketQueue() = default;

  PacketQueue(const PacketQueue&) = delete;
  PacketQueue& operator=(const PacketQueue&) = delete;

  /// True if `bytes` more would exceed either limit.
  bool would_overflow(std::size_t bytes) const {
    return packets() + 1 > limits_.max_packets ||
           this->bytes() + bytes > limits_.max_bytes;
  }

  /// Admit a packet; returns false (tail drop) on overflow.
  bool push(QueuedPacket qp);

  /// Remove the next packet per the queue discipline.
  std::optional<QueuedPacket> pop();

  /// Size of the packet `pop()` would return (0 if empty) — used by the
  /// port transmit loop to compute serialization time without popping.
  virtual std::size_t front_size() const = 0;

  virtual std::size_t packets() const = 0;
  std::size_t bytes() const { return bytes_; }
  bool empty() const { return packets() == 0; }

  const QueueLimits& limits() const { return limits_; }
  const QueueStats& stats() const { return stats_; }

 protected:
  virtual void do_push(QueuedPacket qp) = 0;
  virtual std::optional<QueuedPacket> do_pop() = 0;

  QueueLimits limits_;
  QueueStats stats_;
  std::size_t bytes_ = 0;
};

/// Plain FIFO queue.
class FifoQueue final : public PacketQueue {
 public:
  /// The ring is reserved for the packet limit up front: it never grows
  /// mid-run, and its untouched slots cost no resident memory.
  explicit FifoQueue(QueueLimits limits) : PacketQueue(limits) {
    q_.reserve(limits.max_packets);
  }

  std::size_t front_size() const override {
    return q_.empty() ? 0 : q_.front().packet.size();
  }
  std::size_t packets() const override { return q_.size(); }

 protected:
  void do_push(QueuedPacket qp) override { q_.push_back(std::move(qp)); }
  std::optional<QueuedPacket> do_pop() override;

 private:
  // Ring, not deque: occupancy oscillating around a working level costs a
  // deque one node allocation per few packets; the ring's slots are stable.
  sim::RingQueue<QueuedPacket> q_;
};

}  // namespace edp::tm_
