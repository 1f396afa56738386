#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <span>
#include <utility>

#include "core/event_merger.hpp"
#include "net/packet_builder.hpp"
#include "pisa/deparser.hpp"
#include "pisa/parser.hpp"
#include "runtime/parallel_runtime.hpp"
#include "sim/scheduler.hpp"
#include "topo/spec.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using namespace edp;

/// Keeps the compiler from discarding a probe's result.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

/// Median cost of one `op()` over 15 batches. The batch size doubles until
/// one batch lasts at least 4 ms, so clock reads are a negligible share.
template <typename Op>
double per_op_ns(Op&& op) {
  const auto run_batch = [&op](std::size_t n) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      op();
    }
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
  };
  std::size_t n = 64;
  while (run_batch(n) < 4e6 && n < (std::size_t{1} << 26)) {
    n *= 2;
  }
  std::vector<double> per_op;
  for (int b = 0; b < 15; ++b) {
    per_op.push_back(run_batch(n) / static_cast<double>(n));
  }
  std::nth_element(per_op.begin(), per_op.begin() + 7, per_op.end());
  return per_op[7];
}

net::Packet udp_packet(std::size_t packet_bytes) {
  return net::make_udp_packet(net::Ipv4Address(10, 1, 0, 1),
                              net::Ipv4Address(10, 0, 0, 2), 10000, 20000,
                              packet_bytes);
}

}  // namespace

double clock_read_ns() {
  return per_op_ns([] {
    const auto t = Clock::now();
    keep(t);
  });
}

double build_ns(std::size_t packet_bytes) {
  std::uint16_t port = 10000;
  return per_op_ns([&] {
    net::Packet p = net::make_udp_packet(net::Ipv4Address(10, 1, 0, 1),
                                         net::Ipv4Address(10, 0, 0, 2),
                                         port++, 20000, packet_bytes);
    keep(p);
  });
}

ParseCosts parse_costs(std::size_t packet_bytes) {
  const pisa::Parser parser = pisa::Parser::standard();
  const pisa::Deparser deparser;
  ParseCosts c;

  const pisa::Phv fixed = parser.parse(udp_packet(packet_bytes));
  net::Packet out = udp_packet(packet_bytes);
  c.deparse_ns = per_op_ns([&] {
    deparser.deparse_into(fixed, out);
    keep(out);
  });

  // parse + deparse_into, trading two buffers so neither reallocates.
  net::Packet a = udp_packet(packet_bytes);
  net::Packet b = udp_packet(packet_bytes);
  const double pair_ns = per_op_ns([&] {
    pisa::Phv phv = parser.parse(std::move(a));
    deparser.deparse_into(phv, b);
    a = std::move(b);
    b = std::move(phv.packet);
  });
  c.parse_ns = pair_ns - c.deparse_ns;
  return c;
}

double lookup_ns(const pisa::MatchActionTable& table,
                 const std::vector<net::Ipv4Address>& dsts) {
  std::size_t i = 0;
  return per_op_ns([&] {
    const std::uint64_t key[1] = {dsts[i++ % dsts.size()].value()};
    const auto r = table.lookup(std::span<const std::uint64_t>(key));
    keep(r);
  });
}

double enq_deq_ns(const tm_::TmConfig& config, std::size_t packet_bytes) {
  tm_::TrafficManager tm(config);
  tm.on_enqueue = [](const tm_::EnqueueRecord&) {};
  tm.on_dequeue = [](const tm_::DequeueRecord&) {};
  tm.on_drop = [](const tm_::DropRecord&) {};
  tm.on_underflow = [](const tm_::UnderflowRecord&) {};
  const tm_::EventMetaWords meta{};
  net::Packet pkt = udp_packet(packet_bytes);
  std::int64_t now_ps = 0;
  return per_op_ns([&] {
    const sim::Time now = sim::Time::picos(now_ps += 1000);
    tm_::QueuedPacket qp;
    qp.packet = std::move(pkt);
    qp.enqueue_time = now;
    tm.enqueue(1, 0, std::move(qp), meta, now);
    std::optional<tm_::QueuedPacket> back = tm.dequeue(1, now);
    pkt = std::move(back->packet);
  });
}

double schedule_fire_ns(std::size_t burst) {
  burst = std::max<std::size_t>(burst, 1);
  sim::Scheduler sched;
  std::uint64_t fired = 0;
  std::int64_t tick_ps = 0;
  const double per_tick = per_op_ns([&] {
    const sim::Time t = sim::Time::picos(tick_ps += 1000);
    for (std::size_t i = 0; i < burst; ++i) {
      sched.at(t, [&fired] { ++fired; });
    }
    sched.run_until(t);
  });
  keep(fired);
  return per_tick / static_cast<double>(burst);
}

double merger_slot_ns(std::size_t packet_bytes) {
  sim::Scheduler sched;
  core::EventMerger merger(sched, core::MergerConfig{});
  net::Packet pkt = udp_packet(packet_bytes);
  merger.on_slot = [&](core::SlotWork&& work) {
    pkt = std::move(*work.packet);
    merger.recycle(std::move(work));
  };
  return per_op_ns([&] {
    merger.submit_packet(std::move(pkt), core::PacketOrigin::kIngress);
    sched.run();
  });
}

double runtime_round_ns(const workload::ScenarioSpec& spec,
                        const apps::RegisteredProgram& app,
                        const workload::ReplayOptions& options) {
  topo::Spec topo;
  workload::build_topology(
      options.use_registry_rates ? workload::apply_rates(spec, app.rates) : spec,
      topo);
  runtime::ParallelRuntime rt(topo, topo::plan_shards(topo, options.shards));
  std::int64_t now_ps = 0;
  return per_op_ns(
      [&] { rt.run_until(sim::Time::picos(now_ps += 1'000'000)); });
}

}  // namespace perfbench
