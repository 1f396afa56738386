// Layer probes: each one times many calls into a single public function of
// one simulator layer, on inputs shaped like the workload's, and returns
// the median cost of one call in nanoseconds. The traced run multiplies a
// probe by the number of times the layer did that work per simulated
// packet to charge the layer its share of the packet's cost.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "apps/registry.hpp"
#include "net/address.hpp"
#include "pisa/table.hpp"
#include "tm/traffic_manager.hpp"
#include "workload/replay.hpp"

namespace perfbench {

/// Cost of one steady_clock::now() read; subtracted from every span.
double clock_read_ns();

/// net::make_udp_packet at `packet_bytes` (includes the pooled buffer's
/// acquire and release).
double build_ns(std::size_t packet_bytes);

/// pisa::Parser::parse and pisa::Deparser::deparse_into on a UDP packet of
/// `packet_bytes`.
struct ParseCosts {
  double parse_ns = 0;
  double deparse_ns = 0;
};
ParseCosts parse_costs(std::size_t packet_bytes);

/// pisa::MatchActionTable::lookup on `table`, cycling through `dsts`.
double lookup_ns(const edp::pisa::MatchActionTable& table,
                 const std::vector<edp::net::Ipv4Address>& dsts);

/// One tm_::TrafficManager enqueue + dequeue at `config`, with no-op event
/// callbacks installed as a switch installs its own.
double enq_deq_ns(const edp::tm_::TmConfig& config, std::size_t packet_bytes);

/// One sim::Scheduler at() + fire, scheduling `burst` events per tick (the
/// burst density the workload measured) and draining them with run_until.
double schedule_fire_ns(std::size_t burst);

/// One core::EventMerger pipeline slot carrying a packet: submit_packet,
/// the slot's scheduler event, and the consumer's recycle.
double merger_slot_ns(std::size_t packet_bytes);

/// One runtime::ParallelRuntime::run_until call on the workload's topology
/// and shard plan with no programs or sources attached, so every call is a
/// single synchronisation round with nothing to execute.
double runtime_round_ns(const edp::workload::ScenarioSpec& spec,
                        const edp::apps::RegisteredProgram& app,
                        const edp::workload::ReplayOptions& options);

}  // namespace perfbench
