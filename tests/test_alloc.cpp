// Heap-allocation gate for the scenario replay loop.
//
// This binary replaces the global operator new with a counting one, so it
// sees every heap allocation in the process — not only the packet-buffer
// pool's misses that ScenarioOutcome::allocations_per_event reports. A
// small web storm is replayed at 1 and 2 shards, and the steady state
// (after the warmup chunk) must not allocate at all.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "workload/replay.hpp"

namespace {

std::atomic<std::uint64_t> g_heap_allocations{0};

std::uint64_t heap_allocations() {
  return g_heap_allocations.load(std::memory_order_relaxed);
}

void* counted_alloc(std::size_t n, std::size_t align) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) {
    n = 1;
  }
  void* p = align > alignof(std::max_align_t)
                ? std::aligned_alloc(align, (n + align - 1) / align * align)
                : std::malloc(n);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n, 0);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return operator new(n, t);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n, static_cast<std::size_t>(a));
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t& t) noexcept {
  return operator new(n, a, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace edp::workload {
namespace {

/// The benchmark's web storm (ecn-marking, web-search mix at registry
/// rates, incast and microbursts), shrunk to a test-sized flow count.
ScenarioSpec web_storm() {
  ScenarioSpec spec;
  spec.name = "alloc-storm";
  spec.seed = 42;
  spec.edges = 4;
  spec.hosts_per_edge = 2;
  spec.flows = 1500;
  spec.incast_degree = 4;
  spec.burst_packets = 16;
  return spec;
}

void expect_no_steady_state_allocations(std::size_t shards) {
  const apps::RegisteredProgram* app = find_program("ecn-marking");
  ASSERT_NE(app, nullptr);
  ReplayOptions opt;
  opt.shards = shards;
  opt.heap_allocations = &heap_allocations;
  const std::uint64_t before = heap_allocations();
  const ScenarioOutcome out = replay(web_storm(), *app, opt);
  // The counter is live: set-up allocates.
  EXPECT_GT(heap_allocations(), before);
  EXPECT_GT(out.packets_sent, 10000u);
  EXPECT_EQ(out.sink_rx_packets, out.packets_sent);
  EXPECT_EQ(out.allocations_per_event, 0.0);
  EXPECT_EQ(out.heap_allocations_per_event, 0.0)
      << "heap allocations per event after warmup, " << shards
      << " shard(s), " << out.events << " events";
}

// The first replay in this process runs cold: the packet-buffer pool is
// sized at set-up, not by earlier replays.
TEST(HeapAllocations, SteadyStateReplayOneShard) {
  expect_no_steady_state_allocations(1);
}

TEST(HeapAllocations, SteadyStateReplayTwoShards) {
  expect_no_steady_state_allocations(2);
}

}  // namespace
}  // namespace edp::workload
