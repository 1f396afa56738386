#include "traced.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string_view>

#include "analysis/hardware_model.hpp"
#include "analysis/optimizer.hpp"
#include "core/aggregated_register.hpp"
#include "core/event_program.hpp"
#include "core/event_switch.hpp"
#include "net/packet.hpp"
#include "runtime/parallel_runtime.hpp"
#include "topo/spec.hpp"
#include "workload/scenario.hpp"
#include "workload/storm_source.hpp"

namespace perfbench {
namespace {

using namespace edp;
using Clock = std::chrono::steady_clock;

/// DUT port facing the sink host (build_topology's documented layout).
constexpr std::uint16_t kDutSinkPort = 1;
/// Individual spans kept per program instance; totals cover every call.
constexpr std::size_t kSpanSample = 4096;

/// Times calls made on one program instance, which only its shard's
/// worker runs, so the recorder needs no synchronisation.
class CallRecorder {
 public:
  CallRecorder(Clock::time_point base, double clock_ns, std::uint32_t tid)
      : base_(base), clock_ns_(clock_ns), tid_(tid) {}

  template <typename F>
  void time(const char* name, F&& call) {
    const auto t0 = Clock::now();
    call();
    const auto t1 = Clock::now();
    ++calls_;
    ns_ += std::chrono::duration<double, std::nano>(t1 - t0).count() - clock_ns_;
    if (sample_.size() < kSpanSample) {
      sample_.push_back({name, rel(t0), rel(t1), -1, tid_});
    }
  }

  std::uint64_t calls() const { return calls_; }
  double ns() const { return ns_; }

  void append_spans(std::vector<Span>& out) const {
    out.insert(out.end(), sample_.begin(), sample_.end());
  }

 private:
  std::int64_t rel(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - base_)
        .count();
  }

  Clock::time_point base_;
  double clock_ns_;
  std::uint32_t tid_;
  std::uint64_t calls_ = 0;
  double ns_ = 0;
  std::vector<Span> sample_;
};

/// Forwards every EventProgram hook to the DUT program, timing each
/// data-plane handler call.
class TimedProgram final : public core::EventProgram {
 public:
  TimedProgram(core::EventProgram& inner, CallRecorder& rec)
      : inner_(inner), rec_(rec) {}

  void on_ingress(pisa::Phv& phv, core::EventContext& ctx) override {
    rec_.time("apps.on_ingress", [&] { inner_.on_ingress(phv, ctx); });
  }
  void on_egress(pisa::Phv& phv, core::EventContext& ctx) override {
    rec_.time("apps.on_egress", [&] { inner_.on_egress(phv, ctx); });
  }
  void on_recirculate(pisa::Phv& phv, core::EventContext& ctx) override {
    rec_.time("apps.on_recirculate", [&] { inner_.on_recirculate(phv, ctx); });
  }
  void on_generated(pisa::Phv& phv, core::EventContext& ctx) override {
    rec_.time("apps.on_generated", [&] { inner_.on_generated(phv, ctx); });
  }
  void on_enqueue(const tm_::EnqueueRecord& e,
                  core::EventContext& ctx) override {
    rec_.time("apps.on_enqueue", [&] { inner_.on_enqueue(e, ctx); });
  }
  void on_dequeue(const tm_::DequeueRecord& e,
                  core::EventContext& ctx) override {
    rec_.time("apps.on_dequeue", [&] { inner_.on_dequeue(e, ctx); });
  }
  void on_overflow(const tm_::DropRecord& e,
                   core::EventContext& ctx) override {
    rec_.time("apps.on_overflow", [&] { inner_.on_overflow(e, ctx); });
  }
  void on_underflow(const tm_::UnderflowRecord& e,
                    core::EventContext& ctx) override {
    rec_.time("apps.on_underflow", [&] { inner_.on_underflow(e, ctx); });
  }
  void on_transmit(const core::TransmitRecord& e,
                   core::EventContext& ctx) override {
    rec_.time("apps.on_transmit", [&] { inner_.on_transmit(e, ctx); });
  }
  void on_timer(const core::TimerEventData& e,
                core::EventContext& ctx) override {
    rec_.time("apps.on_timer", [&] { inner_.on_timer(e, ctx); });
  }
  void on_control(const core::ControlEventData& e,
                  core::EventContext& ctx) override {
    rec_.time("apps.on_control", [&] { inner_.on_control(e, ctx); });
  }
  void on_link_status(const core::LinkStatusEventData& e,
                      core::EventContext& ctx) override {
    rec_.time("apps.on_link_status", [&] { inner_.on_link_status(e, ctx); });
  }
  void on_user(const core::UserEventData& e,
               core::EventContext& ctx) override {
    rec_.time("apps.on_user", [&] { inner_.on_user(e, ctx); });
  }
  void on_attach(core::EventContext& ctx) override { inner_.on_attach(ctx); }
  bool realize_aggregated(std::string_view reg) override {
    return inner_.realize_aggregated(reg);
  }
  void visit_aggregated(
      const std::function<void(core::AggregatedRegister&)>& visit) override {
    inner_.visit_aggregated(visit);
  }

 private:
  core::EventProgram& inner_;
  CallRecorder& rec_;
};

/// The scenario's edge router with its ingress handler timed.
class TimedEdge final : public workload::EdgeProgram {
 public:
  TimedEdge(std::uint16_t uplink, CallRecorder& rec)
      : EdgeProgram(uplink), rec_(rec) {}

  void on_ingress(pisa::Phv& phv, core::EventContext& ctx) override {
    rec_.time("workload.edge_ingress",
              [&] { EdgeProgram::on_ingress(phv, ctx); });
  }

 private:
  CallRecorder& rec_;
};

// The outcome digest, mixed exactly as workload::replay mixes it. The
// caller compares it with replay()'s digest, so any drift here fails the
// traced run rather than passing silently.
std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t mix_switch(std::uint64_t h, const core::EventSwitch& sw) {
  const auto& c = sw.counters();
  for (std::uint64_t v :
       {c.rx_packets, c.tx_packets, c.tx_bytes, c.parse_drops,
        c.program_drops, c.bad_port_drops, c.recirculated,
        c.recirc_loop_drops, c.generated, c.punts, c.refused_ops}) {
    h = fnv_mix(h, v);
  }
  for (std::uint64_t v : c.observed) {
    h = fnv_mix(h, v);
  }
  return h;
}

std::uint64_t mix_host(std::uint64_t h, const topo::Host& host) {
  h = fnv_mix(h, host.tx_packets());
  h = fnv_mix(h, host.rx_packets());
  h = fnv_mix(h, host.rx_bytes());
  for (std::uint16_t port : {20000, 20001, 20002}) {
    h = fnv_mix(h, host.rx_on_port(port));
  }
  return h;
}

}  // namespace

TracedRun run_traced(const workload::ScenarioSpec& base,
                     const apps::RegisteredProgram& app,
                     const workload::ReplayOptions& options,
                     double clock_ns) {
  if (!base.flaps.empty()) {
    throw std::invalid_argument("traced run: link flaps are not composed");
  }
  const Clock::time_point t_base = Clock::now();
  TracedRun out;
  std::vector<Span>& spans = out.spans;
  const auto rel_now = [&] {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                t_base)
        .count();
  };
  const auto open = [&](const char* name, int parent) {
    spans.push_back({name, rel_now(), 0, parent, 0});
    return static_cast<int>(spans.size() - 1);
  };
  const auto close = [&](int span) { spans[span].end_ns = rel_now(); };
  const auto seconds = [&](int span) {
    return 1e-9 * static_cast<double>(spans[span].end_ns -
                                      spans[span].start_ns);
  };

  // ---- set-up: the steps of replay() before its run phase ----------------
  const int setup = open("setup", -1);
  int step = open("setup.topology", setup);
  const workload::ScenarioSpec spec =
      options.use_registry_rates ? workload::apply_rates(base, app.rates)
                                 : base;
  topo::Spec topo;
  const workload::TopologyMap map = workload::build_topology(spec, topo);
  close(step);

  step = open("setup.runtime", setup);
  runtime::ParallelRuntime rt(topo, topo::plan_shards(topo, options.shards));
  close(step);

  step = open("setup.program", setup);
  std::unique_ptr<core::EventProgram> inner;
  std::uint64_t transforms = 0;
  if (options.optimize) {
    analysis::AnalyzerOptions aopt;
    aopt.lint = app.lint;
    aopt.model = analysis::find_hardware_model(options.optimize_target);
    aopt.rates = app.rates;
    aopt.widths = app.widths;
    const analysis::OptimizationResult opt =
        analysis::optimize_program(app.name, app.factory, aopt);
    inner = opt.optimized_factory();
    rt.sw(map.dut).set_dispatch_plan(opt.plan);
    transforms = opt.transforms.size();
  } else {
    inner = app.factory();
  }
  close(step);
  out.program_s = seconds(step);

  step = open("setup.attach", setup);
  CallRecorder dut_rec(t_base, clock_ns,
                       static_cast<std::uint32_t>(rt.shard_of_switch(map.dut)));
  TimedProgram dut(*inner, dut_rec);
  rt.sw(map.dut).set_program(&dut);
  dut.visit_aggregated([&](core::AggregatedRegister& reg) {
    rt.sw(map.dut).register_aggregated(reg);
  });
  const auto uplink = static_cast<std::uint16_t>(spec.hosts_per_edge);
  std::vector<std::unique_ptr<CallRecorder>> edge_recs;
  std::vector<std::unique_ptr<TimedEdge>> edges;
  for (std::size_t e = 0; e < spec.edges; ++e) {
    edge_recs.push_back(std::make_unique<CallRecorder>(
        t_base, clock_ns,
        static_cast<std::uint32_t>(rt.shard_of_switch(map.edges[e]))));
    auto prog = std::make_unique<TimedEdge>(uplink, *edge_recs.back());
    prog->add_route(net::Ipv4Address(10, 0, 0, 0), 8, uplink);
    for (std::size_t h = 0; h < spec.hosts_per_edge; ++h) {
      prog->add_route(map.source_ips[e * spec.hosts_per_edge + h], 32,
                      static_cast<std::uint16_t>(h));
    }
    rt.sw(map.edges[e]).set_program(prog.get());
    edges.push_back(std::move(prog));
  }
  close(step);

  step = open("setup.sources", setup);
  const sim::Time horizon = spec.horizon();
  std::vector<std::unique_ptr<workload::StormSource>> sources;
  for (std::size_t i = 0; i < map.source_hosts.size(); ++i) {
    workload::StormSource::Config c;
    c.source_index = i;
    c.seed = spec.seed;
    c.src_ip = map.source_ips[i];
    c.dst_ip = map.sink_ip;
    c.packet_bytes = std::max<std::size_t>(spec.packet_bytes, 64);
    c.nic_rate_bps = spec.nic_rate_bps;
    c.flow_budget = spec.flows_per_source();
    c.cdf = &spec.size_cdf();
    c.cap_bytes = spec.flow_size_cap_bytes;
    c.arrivals.kind = spec.arrivals;
    c.arrivals.flows_per_sec = spec.flows_per_sec_per_source();
    c.arrivals.on_mean = spec.on_mean;
    c.arrivals.off_mean = spec.off_mean;
    if (spec.incast_degree > i) {
      c.incast_flow_bytes = spec.incast_flow_bytes;
      c.incast_period = spec.incast_period;
    }
    c.burst_packets = spec.burst_packets;
    c.burst_period = spec.burst_period;
    c.stop = spec.active_span();
    const std::size_t host = map.source_hosts[i];
    sources.push_back(std::make_unique<workload::StormSource>(
        rt.scheduler_of_host(host), rt.host(host), c));
    sources.back()->start();
  }
  close(step);
  close(setup);

  // ---- run phase: replay()'s warmup chunk, then fixed chunks -------------
  const sim::PoolStats pool0 = net::packet_buffer_pool_stats();
  const int run = open("run", -1);
  const sim::Time warmup =
      std::min(options.chunk, sim::Time(horizon.ps() / 10));
  std::uint64_t warm_events = 0;
  sim::PoolStats pool_warm;
  for (sim::Time t = sim::Time::zero(); t < horizon;) {
    t = t == sim::Time::zero() ? std::min(warmup, horizon)
                               : std::min(horizon, t + options.chunk);
    const int chunk = open("runtime.run_until", run);
    rt.run_until(t);
    close(chunk);
    out.run_s += seconds(chunk);
    if (chunk == run + 1) {
      warm_events = rt.total_executed();
      pool_warm = net::packet_buffer_pool_stats();
    }
  }
  close(run);
  const sim::PoolStats pool1 = net::packet_buffer_pool_stats();

  // ---- outcome digest ------------------------------------------------------
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto& src : sources) {
    out.packets_sent += src->packets_sent();
    h = fnv_mix(h, src->flows_started());
    h = fnv_mix(h, src->packets_sent());
    h = fnv_mix(h, src->bytes_sent());
  }
  h = mix_switch(h, rt.sw(map.dut));
  for (std::size_t e = 0; e < spec.edges; ++e) {
    h = mix_switch(h, rt.sw(map.edges[e]));
    h = fnv_mix(h, edges[e]->uplink_drops());
  }
  h = mix_host(h, rt.host(map.sink_host));
  h = mix_host(h, rt.host(map.aux_host));
  for (std::size_t host : map.source_hosts) {
    h = mix_host(h, rt.host(host));
  }
  out.digest = h;

  // ---- layer counters ------------------------------------------------------
  auto& n = out.counts;
  const auto add_switch = [&](const core::EventSwitch& sw) {
    const core::EventMerger& m = sw.merger();
    n["slots"] += static_cast<double>(m.slots_total());
    n["slots_carrier"] += static_cast<double>(m.slots_carrier());
    n["slots_with_packet"] += static_cast<double>(m.slots_with_packet());
    n["events_piggybacked"] += static_cast<double>(m.events_piggybacked());
    n["events_on_carrier"] += static_cast<double>(m.events_on_carrier());
    for (std::size_t k = 0; k < core::kNumEventKinds; ++k) {
      n["event_drops"] += static_cast<double>(
          m.kind_stats(static_cast<core::EventKind>(k)).dropped);
    }
    const tm_::TrafficManager& tm = sw.traffic_manager();
    for (std::uint16_t p = 0; p < sw.config().num_ports; ++p) {
      for (std::uint8_t q = 0; q < tm.config().queues_per_port; ++q) {
        const tm_::QueueStats& qs = tm.queue_stats(p, q);
        n["tm_ops"] += static_cast<double>(qs.enqueued + qs.dropped);
      }
    }
  };
  add_switch(rt.sw(map.dut));
  for (std::size_t e = 0; e < spec.edges; ++e) {
    add_switch(rt.sw(map.edges[e]));
  }
  const tm_::TrafficManager& dut_tm = rt.sw(map.dut).traffic_manager();
  for (std::uint8_t q = 0; q < dut_tm.config().queues_per_port; ++q) {
    n["max_depth_pkts"] = std::max(
        n["max_depth_pkts"],
        static_cast<double>(
            dut_tm.queue_stats(kDutSinkPort, q).max_depth_packets));
  }

  n["handler_calls"] = static_cast<double>(dut_rec.calls());
  n["handler_ns"] = dut_rec.ns();
  for (const auto& rec : edge_recs) {
    n["edge_calls"] += static_cast<double>(rec->calls());
    n["edge_ns"] += rec->ns();
  }

  double max_shard_events = 0;
  for (std::size_t s = 0; s < rt.num_shards(); ++s) {
    const sim::Scheduler& sched = rt.shard_scheduler(s);
    n["bursts"] += static_cast<double>(sched.bursts());
    max_shard_events =
        std::max(max_shard_events, static_cast<double>(sched.executed()));
  }
  n["events"] = static_cast<double>(rt.total_executed());
  n["max_shard_events"] = max_shard_events;
  n["windows"] = static_cast<double>(rt.windows());
  n["xshard_msgs"] = static_cast<double>(rt.cross_shard_messages());
  n["overflow_msgs"] = static_cast<double>(rt.overflow_messages());
  n["ring_drains"] = static_cast<double>(rt.ring_drains());
  n["ring_drained"] = static_cast<double>(rt.ring_drained());

  n["buf_acquired"] = static_cast<double>(pool1.acquired - pool0.acquired);
  n["buf_reused"] = static_cast<double>(pool1.reused - pool0.reused);
  n["steady_allocs"] = static_cast<double>(pool1.allocated - pool_warm.allocated);
  n["steady_events"] = static_cast<double>(rt.total_executed() - warm_events);

  n["transforms"] = static_cast<double>(transforms);
  inner->visit_aggregated([&](core::AggregatedRegister& reg) {
    n["agg_drained"] += static_cast<double>(reg.drained());
    n["agg_staleness_max_cycles"] = std::max(
        n["agg_staleness_max_cycles"], static_cast<double>(reg.staleness_max()));
  });
  n["packet_bytes"] =
      static_cast<double>(std::max<std::size_t>(spec.packet_bytes, 64));

  // ---- handler and edge spans, parented to their run_until chunk ---------
  const std::size_t first_sampled = spans.size();
  dut_rec.append_spans(spans);
  for (const auto& rec : edge_recs) {
    rec->append_spans(spans);
  }
  for (std::size_t i = first_sampled; i < spans.size(); ++i) {
    for (int c = run + 1; c < static_cast<int>(first_sampled); ++c) {
      if (spans[c].start_ns <= spans[i].start_ns &&
          spans[i].start_ns <= spans[c].end_ns) {
        spans[i].parent = c;
        break;
      }
    }
  }
  return out;
}

}  // namespace perfbench
