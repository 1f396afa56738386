// edp::runtime — the round gate: a reusable barrier for a fixed party of
// threads that spins briefly before it sleeps.
//
// The parallel runtime crosses one gate per synchronization round, about
// every 15 µs on a web storm, and the gap between the first and the last
// arrival is usually a few microseconds of shard imbalance. A barrier that
// sleeps in the kernel at once (or after a handful of spins, as
// libstdc++'s std::barrier does) pays a futex wake plus the scheduler's
// wake-up latency on nearly every round, which costs more than the round's
// work. So a waiter first polls the generation word for kSpinBudget
// iterations, with the CPU's pause hint between polls and a yield every
// kYieldEvery, and only then parks on it with std::atomic::wait.
//
// The spin is bounded because a spinning waiter steals the CPU from the
// very thread it waits for whenever the party outnumbers the CPUs it may
// run on. Past the budget the gate degrades to an ordinary futex barrier,
// so an oversubscribed party slows down but never stalls.
//
// Ordering: every write a party makes before arrive_and_wait() happens-
// before every read any party makes after it returns (the arrival count is
// an acq_rel read-modify-write chain, the generation bump a release store
// that waiters acquire).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace edp::runtime {

class RoundGate {
 public:
  /// Generation polls a waiter makes before it parks in the kernel. At a
  /// pause latency of about 25 ns (2.1 GHz Xeon) this is about 100 µs:
  /// longer than the arrival spread of a balanced round, short next to a
  /// scheduler time slice.
  static constexpr int kSpinBudget = 4096;
  /// A spinning waiter offers its CPU every kYieldEvery polls (about 1.5
  /// µs of pauses). With a CPU of its own the yield returns at once; when
  /// the scheduler has put the party it waits for on the same CPU (a futex
  /// wake pulls the woken thread toward the waker's CPU), the yield lets
  /// that peer run instead of the spin starving it until the park, which
  /// otherwise repeats every round.
  static constexpr int kYieldEvery = 64;

  explicit RoundGate(std::size_t parties)
      : parties_(static_cast<std::uint32_t>(parties)) {}

  RoundGate(const RoundGate&) = delete;
  RoundGate& operator=(const RoundGate&) = delete;

  /// Blocks until all parties have arrived in the current generation.
  /// Returns true when this caller ran out of spin budget and slept.
  bool arrive_and_wait() {
    // The generation cannot move before this party arrives, so a relaxed
    // load reads the one this wait belongs to.
    const std::uint32_t gen = generation_.load(std::memory_order_relaxed);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      // Reset before the bump: the next generation's arrivals start only
      // after they observe the bump.
      arrived_.store(0, std::memory_order_relaxed);
      // seq_cst, not release: the notify below must not read a stale
      // waiter count while this store still sits in the store buffer.
      generation_.store(gen + 1, std::memory_order_seq_cst);
      generation_.notify_all();
      return false;
    }
    for (int i = 1; i <= kSpinBudget; ++i) {
      if (generation_.load(std::memory_order_acquire) != gen) {
        return false;
      }
      if (i % kYieldEvery == 0) {
        std::this_thread::yield();
      } else {
        cpu_relax();
      }
    }
    generation_.wait(gen, std::memory_order_acquire);  // returns once moved
    return true;
  }

 private:
  static void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#endif
  }

  const std::uint32_t parties_;
  alignas(64) std::atomic<std::uint32_t> arrived_{0};
  alignas(64) std::atomic<std::uint32_t> generation_{0};
};

}  // namespace edp::runtime
