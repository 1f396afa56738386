// edp::sim — growable power-of-two ring buffer FIFO.
//
// Replaces std::deque on per-event paths (merger FIFOs, traffic-manager
// queues, host transmit queues). A deque allocates and frees a map node
// roughly every page's worth of elements even when its size oscillates
// around a constant — a steady drip of allocator traffic per packet. The
// ring reaches its high-water capacity once and then never touches the
// allocator again; head/tail are monotonically increasing counters masked
// into the slot array (the same construction as runtime::SpscRing, minus
// the atomics).
//
// Slots are raw storage: an element is constructed on push and destroyed
// on pop, and an emptied ring restarts at slot 0. So reserve() costs
// address space, not resident memory — a queue reserved for its limit
// touches only the slots its deepest backlog used — which lets owners size
// a ring at set-up from a bound (a traffic-manager queue's packet limit)
// and never grow it mid-run.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <new>
#include <utility>

namespace edp::sim {

template <typename T>
class RingQueue {
 public:
  RingQueue() = default;
  RingQueue(const RingQueue&) = delete;
  RingQueue& operator=(const RingQueue&) = delete;
  ~RingQueue() {
    clear();
    std::allocator<T>().deallocate(slots_, cap_);
  }

  std::size_t size() const { return tail_ - head_; }
  bool empty() const { return head_ == tail_; }
  std::size_t capacity() const { return cap_; }

  /// Grow the slot array so `n` elements fit without reallocation.
  void reserve(std::size_t n) {
    if (n > cap_) {
      grow(n);
    }
  }

  T& front() {
    assert(!empty());
    return slots_[head_ & (cap_ - 1)];
  }
  const T& front() const {
    assert(!empty());
    return slots_[head_ & (cap_ - 1)];
  }

  void push_back(T v) {
    if (size() == cap_) {
      grow(cap_ * 2);
    }
    ::new (static_cast<void*>(&slots_[tail_ & (cap_ - 1)])) T(std::move(v));
    ++tail_;
  }

  /// Destroy the front element (callers move `front()` out first).
  void pop_front() {
    assert(!empty());
    std::destroy_at(&slots_[head_ & (cap_ - 1)]);
    ++head_;
    if (head_ == tail_) {
      head_ = tail_ = 0;  // restart at slot 0: keeps the touched span small
    }
  }

  void clear() {
    while (!empty()) {
      pop_front();
    }
  }

 private:
  void grow(std::size_t min_capacity) {
    std::size_t cap = 8;
    while (cap < min_capacity) {
      cap <<= 1;
    }
    T* next = std::allocator<T>().allocate(cap);
    const std::size_t n = size();
    for (std::size_t i = 0; i < n; ++i) {
      T& from = slots_[(head_ + i) & (cap_ - 1)];
      ::new (static_cast<void*>(&next[i])) T(std::move(from));
      std::destroy_at(&from);
    }
    if (slots_ != nullptr) {
      std::allocator<T>().deallocate(slots_, cap_);
    }
    slots_ = next;
    cap_ = cap;
    head_ = 0;
    tail_ = n;
  }

  T* slots_ = nullptr;
  std::size_t cap_ = 0;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
};

}  // namespace edp::sim
