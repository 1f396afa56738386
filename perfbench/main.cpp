// The repository benchmark program. Replays one named storm through
// workload::replay (the engine behind edp_scen) for a wall-clock budget,
// checks every replay's outcome, and prints the raw samples as one JSON
// object on the last line of stdout. perfbench/run.py builds this binary,
// runs it once per workload and seed, and reduces the samples to metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--flows N] [--pin HEX] [--trace-out PATH]
//
// --trace 0 times replay() itself (end-to-end metrics). --trace 1
// alternates replay() with the traced composition of the same scenario
// (traced.hpp), runs the layer probes (probes.hpp), and reports per-layer
// metrics. Whatever the seed, every run also replays the workload at the
// default seed and size once, untimed, and checks that digest against the
// pinned one. --flows resizes the run's own storm (not the pinned replay);
// --pin overrides the pinned digest.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "probes.hpp"
#include "traced.hpp"
#include "workload/replay.hpp"

namespace {

using namespace edp;
using Clock = std::chrono::steady_clock;

/// Seed the pinned digests were recorded at.
constexpr std::uint64_t kDefaultSeed = 42;

/// How a run obtains the outcome every timed replay must reproduce.
enum class Reference {
  kRepeat,    ///< an identical untimed replay
  kOneShard,  ///< the same storm on one shard (sharding must not matter)
  kNaive,     ///< the same storm without the optimizer (it must not matter)
};

struct Workload {
  std::string name;
  std::string app;
  workload::ScenarioSpec spec;
  workload::ReplayOptions options;
  Reference reference = Reference::kRepeat;
  /// The spec provably loses no packet, so the sink receives all sent.
  bool drop_free = false;
  std::uint64_t default_flows = 0;
  /// replay() digest at kDefaultSeed and default_flows.
  std::uint64_t pinned_digest = 0;
};

// The web-search storm of bench_scenario: per-packet overhead with a
// trivial app (ecn-marking) at registry rates, about 700 B packets.
workload::ScenarioSpec web_storm_spec() {
  workload::ScenarioSpec spec;
  spec.name = "web-storm";
  spec.edges = 4;
  spec.hosts_per_edge = 2;
  spec.sizes = workload::SizeMix::kWebSearch;
  spec.load = 0.4;
  spec.incast_degree = 4;
  spec.burst_packets = 16;
  return spec;
}

// Smallest packets, so per-packet cost dominates; every packet drives the
// microburst app's register updates through the optimizer's fused
// enqueue/dequeue dispatch and aggregated-register idle-cycle drains.
workload::ScenarioSpec microburst_spec() {
  workload::ScenarioSpec spec;
  spec.name = "microburst-64b";
  spec.edges = 4;
  spec.hosts_per_edge = 2;
  spec.sizes = workload::SizeMix::kHadoop;
  spec.packet_bytes = 64;
  spec.load = 0.6;
  spec.incast_degree = 8;
  spec.burst_packets = 64;
  return spec;
}

std::optional<Workload> make_workload(std::string_view name) {
  Workload w;
  w.name = std::string(name);
  if (name == "web-storm" || name == "web-storm-2w") {
    w.app = "ecn-marking";
    w.spec = web_storm_spec();
    w.default_flows = 10000;
    w.drop_free = true;
    w.pinned_digest = 0xc295cced1bf8504e;
    if (name == "web-storm-2w") {
      w.options.shards = 2;
      w.reference = Reference::kOneShard;
    }
  } else if (name == "microburst-64b") {
    w.app = "microburst-shared";
    w.spec = microburst_spec();
    w.options.use_registry_rates = false;
    w.options.optimize = true;
    w.options.optimize_target = "linerate-tor";
    w.reference = Reference::kNaive;
    w.default_flows = 5000;
    w.pinned_digest = 0xcaa906f5d5822826;
  } else {
    return std::nullopt;
  }
  return w;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::string json_str(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Pass/fail tallies of the named checks; a replay that fails any check is
/// one failed operation.
class Checks {
 public:
  /// Record one check of the current operation.
  void expect(const std::string& name, bool ok, const std::string& detail) {
    auto& t = tally_[name];
    ++(ok ? t.passed : t.failed);
    if (!ok) {
      op_failed_ = true;
      if (failures_.size() < 5) {
        failures_.push_back(name + ": " + detail);
      }
    }
  }
  /// Close the current operation.
  void end_operation() {
    ++attempted_;
    failed_ += op_failed_ ? 1 : 0;
    op_failed_ = false;
  }

  std::string json() const {
    std::string out = "\"attempted\": " + std::to_string(attempted_) +
                      ", \"failed\": " + std::to_string(failed_) +
                      ", \"checks\": {";
    bool first = true;
    for (const auto& [name, t] : tally_) {
      out += (first ? "" : ", ") + json_str(name) + ": {\"passed\": " +
             std::to_string(t.passed) +
             ", \"failed\": " + std::to_string(t.failed) + "}";
      first = false;
    }
    out += "}, \"failures\": [";
    for (std::size_t i = 0; i < failures_.size(); ++i) {
      out += (i ? ", " : "") + json_str(failures_[i]);
    }
    return out + "]";
  }

 private:
  struct Tally {
    std::uint64_t passed = 0;
    std::uint64_t failed = 0;
  };
  std::map<std::string, Tally> tally_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool op_failed_ = false;
};

/// Named sample series with units, printed as the result's "samples".
class Samples {
 public:
  void add(const std::string& name, const char* unit, double v) {
    auto& s = series_[name];
    s.unit = unit;
    s.values.push_back(v);
  }
  double median_of(const std::string& name) const {
    const auto it = series_.find(name);
    return it == series_.end() ? 0 : median(it->second.values);
  }
  std::string json() const {
    std::string out = "{";
    bool first = true;
    for (const auto& [name, s] : series_) {
      out += (first ? "" : ", ") + json_str(name) + ": {\"unit\": " +
             json_str(s.unit) + ", \"values\": [";
      for (std::size_t i = 0; i < s.values.size(); ++i) {
        out += (i ? ", " : "") + json_num(s.values[i]);
      }
      out += "]}";
      first = false;
    }
    return out + "}";
  }

 private:
  struct Series {
    std::string unit;
    std::vector<double> values;
  };
  std::map<std::string, Series> series_;
};

/// One replay() call, timed from outside: set-up is everything replay()
/// spends outside its own run-phase clock.
struct TimedReplay {
  workload::ScenarioOutcome out;
  double setup_s = 0;
  double run_cpu_s = 0;  ///< process CPU over the call minus set-up wall
};

TimedReplay timed_replay(const Workload& w, const apps::RegisteredProgram& app,
                         const workload::ReplayOptions& options) {
  TimedReplay r;
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  r.out = workload::replay(w.spec, app, options);
  const double total = std::chrono::duration<double>(Clock::now() - t0).count();
  const double cpu = process_cpu_s() - cpu0;
  // Set-up and teardown run on the calling thread alone while the worker
  // pool is parked, so their CPU time equals their wall time.
  r.setup_s = total - r.out.wall_seconds;
  r.run_cpu_s = cpu - r.setup_s;
  return r;
}

void write_trace(const std::string& path, const perfbench::TracedRun& tr) {
  std::ofstream f(path);
  f << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < tr.spans.size(); ++i) {
    const perfbench::Span& s = tr.spans[i];
    f << (i ? ",\n" : "") << "{\"name\": " << json_str(s.name)
      << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid
      << ", \"ts\": " << json_num(1e-3 * static_cast<double>(s.start_ns))
      << ", \"dur\": "
      << json_num(1e-3 * static_cast<double>(s.end_ns - s.start_ns))
      << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
      << "}}";
  }
  f << "\n]}\n";
}

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::uint64_t flows = 0;
  std::optional<std::uint64_t> pin;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a.trace = std::string_view(v) == "1";
    } else if (k == "--flows") {
      a.flows = std::strtoull(v, nullptr, 10);
    } else if (k == "--pin") {
      a.pin = std::strtoull(v, nullptr, 16);
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

int run(const Args& args) {
  std::optional<Workload> found = make_workload(args.workload);
  if (!found) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  Workload& w = *found;
  const apps::RegisteredProgram* app = workload::find_program(w.app);
  if (app == nullptr) {
    std::fprintf(stderr, "perfbench: app '%s' not registered\n", w.app.c_str());
    return 2;
  }
  w.spec.seed = args.seed;
  w.spec.flows = args.flows != 0 ? args.flows : w.default_flows;
  const std::uint64_t pin = args.pin.value_or(w.pinned_digest);
  const bool run_is_pinned =
      args.seed == kDefaultSeed && w.spec.flows == w.default_flows;

  Checks checks;
  Samples samples;
  const auto check_outcome = [&](const workload::ScenarioOutcome& o,
                                 bool pinned) {
    if (pinned) {
      checks.expect("digest_pinned", o.digest == pin,
                    hex(o.digest) + " != pinned " + hex(pin));
    }
    checks.expect("allocations_per_event_zero", o.allocations_per_event == 0,
                  std::to_string(o.allocations_per_event));
    if (w.drop_free) {
      checks.expect("sink_rx_equals_sent", o.sink_rx_packets == o.packets_sent,
                    std::to_string(o.sink_rx_packets) + " != " +
                        std::to_string(o.packets_sent));
    }
  };

  // --seconds budgets the whole run, the untimed replays below included.
  const auto t_start = Clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - t_start).count();
  };

  // The reference replay (untimed; it also warms the packet-buffer pool).
  workload::ReplayOptions ref_options = w.options;
  if (w.reference == Reference::kOneShard) {
    ref_options.shards = 1;
  } else if (w.reference == Reference::kNaive) {
    ref_options.optimize = false;
  }
  const TimedReplay ref = timed_replay(w, *app, ref_options);
  check_outcome(ref.out, run_is_pinned);
  checks.end_operation();

  // The pinned replay: the default seed and size with the workload's own
  // options, so a change that alters the digest fails every run, not only
  // runs at the default seed. When the run is at the default size,
  // its set-up time is one more setup_s sample.
  std::uint64_t pinned_replay_digest = ref.out.digest;
  std::optional<double> pinned_replay_setup_s;
  if (!run_is_pinned) {
    Workload p = w;
    p.spec.seed = kDefaultSeed;
    p.spec.flows = w.default_flows;
    const TimedReplay r = timed_replay(p, *app, w.options);
    pinned_replay_digest = r.out.digest;
    if (w.spec.flows == w.default_flows) {
      pinned_replay_setup_s = r.setup_s;
    }
    check_outcome(r.out, true);
    checks.end_operation();
  }

  const auto check_against_reference = [&](const workload::ScenarioOutcome& o) {
    check_outcome(o, run_is_pinned);
    const char* name = w.reference == Reference::kOneShard ? "shards_agree"
                       : w.reference == Reference::kNaive
                           ? "optimized_equals_naive"
                           : "deterministic";
    checks.expect(name, o.digest == ref.out.digest,
                  hex(o.digest) + " != reference " + hex(ref.out.digest));
    if (w.reference == Reference::kNaive) {
      checks.expect("app_state_equals_naive",
                    o.app_state_digest == ref.out.app_state_digest,
                    hex(o.app_state_digest) + " != " +
                        hex(ref.out.app_state_digest));
    }
    checks.end_operation();
  };
  const auto record_replay = [&](const TimedReplay& r, const char* prefix) {
    const double pkts = static_cast<double>(r.out.packets_sent);
    samples.add(std::string(prefix) + "pkts_per_s", "1/s",
                pkts / r.out.wall_seconds);
    samples.add(std::string(prefix) + "cpu_us_per_pkt", "us",
                1e6 * r.run_cpu_s / pkts);
    samples.add(std::string(prefix) + "setup_s", "s", r.setup_s);
    samples.add(std::string(prefix) + "run_s", "s", r.out.wall_seconds);
  };

  if (!args.trace) {
    if (pinned_replay_setup_s) {
      samples.add("setup_s", "s", *pinned_replay_setup_s);
    }
    for (int n = 0; n < 3 || elapsed() < args.seconds; ++n) {
      const TimedReplay r = timed_replay(w, *app, w.options);
      check_against_reference(r.out);
      record_replay(r, "");
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    samples.add("peak_rss_mb", "MB", static_cast<double>(ru.ru_maxrss) / 1024.0);
  } else {
    const double clock_ns = perfbench::clock_read_ns();
    std::vector<perfbench::TracedRun> traced;
    for (int n = 0; n < 2 || elapsed() < args.seconds; ++n) {
      const TimedReplay r = timed_replay(w, *app, w.options);
      check_against_reference(r.out);
      record_replay(r, "untraced.");
      if (w.reference == Reference::kOneShard) {
        const TimedReplay one = timed_replay(w, *app, ref_options);
        check_against_reference(one.out);
        record_replay(one, "one_shard.");
      }
      perfbench::TracedRun tr = perfbench::run_traced(w.spec, *app, w.options,
                                                      clock_ns);
      checks.expect("traced_equals_untraced", tr.digest == r.out.digest,
                    hex(tr.digest) + " != untraced " + hex(r.out.digest));
      checks.end_operation();
      if (!traced.empty()) {
        traced.back().spans = {};  // only the last run's spans are written
      }
      traced.push_back(std::move(tr));
    }
    if (!args.trace_out.empty()) {
      write_trace(args.trace_out, traced.back());
    }

    // Probes at the workload's shapes (read from the first traced run).
    const auto& c0 = traced.front().counts;
    const auto count = [](const perfbench::TracedRun& tr, const char* k) {
      const auto it = tr.counts.find(k);
      return it == tr.counts.end() ? 0.0 : it->second;
    };
    const auto bytes = static_cast<std::size_t>(c0.at("packet_bytes"));
    const auto burst = static_cast<std::size_t>(
        std::lround(c0.at("events") / std::max(1.0, c0.at("bursts"))));
    const double build_ns = perfbench::build_ns(bytes);
    const perfbench::ParseCosts pc = perfbench::parse_costs(bytes);
    const double sched_ns = perfbench::schedule_fire_ns(burst);
    const double slot_ns = perfbench::merger_slot_ns(bytes);

    // A route table shaped like an edge router's (scenario route size).
    workload::EdgeProgram edge(static_cast<std::uint16_t>(w.spec.hosts_per_edge));
    edge.add_route(net::Ipv4Address(10, 0, 0, 0), 8,
                   static_cast<std::uint16_t>(w.spec.hosts_per_edge));
    std::vector<net::Ipv4Address> dsts;
    for (std::size_t h = 0; h < w.spec.hosts_per_edge; ++h) {
      const net::Ipv4Address ip(10, 1, 0, static_cast<std::uint8_t>(h + 1));
      edge.add_route(ip, 32, static_cast<std::uint16_t>(h));
      dsts.push_back(ip);
    }
    dsts.emplace_back(10, 0, 0, 2);
    const double lookup_ns = perfbench::lookup_ns(edge.routes(), dsts);
    const double enq_deq_ns = perfbench::enq_deq_ns(tm_::TmConfig{}, bytes);
    const double round_ns = perfbench::runtime_round_ns(w.spec, *app, w.options);

    const auto ratio = [](double a, double b) { return b == 0 ? 0.0 : a / b; };
    const auto add = [&](const char* name, const char* unit, double v) {
      samples.add(name, unit, v);
    };
    // Probe results and run-level ratios: one sample per run.
    add("net.build_ns", "ns", build_ns);
    add("sim.schedule_fire_ns", "ns", sched_ns);
    add("core.slot_ns", "ns", slot_ns);
    add("pisa.parse_ns", "ns", pc.parse_ns);
    add("pisa.deparse_ns", "ns", pc.deparse_ns);
    add("pisa.lookup_ns", "ns", lookup_ns);
    add("tm.enq_deq_ns", "ns", enq_deq_ns);
    add("runtime.round_ns", "ns", round_ns);
    add("runtime.speedup", "x",
        w.reference == Reference::kOneShard
            ? ratio(samples.median_of("one_shard.run_s"),
                    samples.median_of("untraced.run_s"))
            : 1.0);

    // Per traced run: counters, span totals and the cost split.
    const double untraced_pps = samples.median_of("untraced.pkts_per_s");
    const double measured_ns = 1e3 * samples.median_of("untraced.cpu_us_per_pkt");
    const double one_shard_ns =
        1e3 * samples.median_of("one_shard.cpu_us_per_pkt");
    for (const perfbench::TracedRun& tr : traced) {
      const auto k = [&](const char* key) { return count(tr, key); };
      const double pk = static_cast<double>(tr.packets_sent);
      add("net.buf_acquires_per_pkt", "count/pkt", k("buf_acquired") / pk);
      add("net.buf_reuse_share", "ratio", ratio(k("buf_reused"), k("buf_acquired")));
      add("net.allocs_per_event", "count/event",
          ratio(k("steady_allocs"), k("steady_events")));
      add("sim.events_per_pkt", "count/pkt", k("events") / pk);
      add("sim.events_per_burst", "count/burst", ratio(k("events"), k("bursts")));
      add("core.merger_slots_per_pkt", "count/pkt", k("slots") / pk);
      add("core.carrier_share", "ratio", ratio(k("slots_carrier"), k("slots")));
      add("core.piggyback_share", "ratio",
          ratio(k("events_piggybacked"),
                k("events_piggybacked") + k("events_on_carrier")));
      add("core.event_drops", "count", k("event_drops"));
      add("core.agg_drained", "count", k("agg_drained"));
      add("core.agg_staleness_max_cycles", "cycles", k("agg_staleness_max_cycles"));
      add("pisa.parses_per_pkt", "count/pkt", k("slots_with_packet") / pk);
      add("tm.max_depth_pkts", "count", k("max_depth_pkts"));
      add("apps.handler_ns_per_pkt", "ns/pkt", k("handler_ns") / pk);
      add("apps.handler_calls_per_pkt", "count/pkt", k("handler_calls") / pk);
      add("workload.edge_ingress_ns", "ns", ratio(k("edge_ns"), k("edge_calls")));
      add("analysis.optimize_s", "s", tr.program_s);
      add("analysis.transforms", "count", k("transforms"));
      add("runtime.run_s", "s", tr.run_s);
      add("runtime.events_per_window", "count/window", ratio(k("events"), k("windows")));
      add("runtime.xshard_msgs_per_pkt", "count/pkt", k("xshard_msgs") / pk);
      add("runtime.avg_drain_burst", "count/drain",
          ratio(k("ring_drained"), k("ring_drains")));
      add("runtime.overflow_msgs", "count", k("overflow_msgs"));
      const double share = ratio(k("max_shard_events"), k("events"));
      add("runtime.max_shard_share", "ratio", share);
      add("runtime.amdahl_bound", "x", ratio(1.0, share));
      add("trace.overhead", "ratio", ratio(pk / tr.run_s, untraced_pps));

      // Per-layer cost split, ns per simulated packet: probe cost times
      // calls per packet, plus span self time. Route lookups run inside the
      // handler and edge-ingress spans, so they stay in those layers.
      const double tm_ops_pp = k("tm_ops") / pk;
      const std::map<std::string, double> split = {
          {"net", build_ns},
          {"sim", sched_ns * k("events") / pk},
          {"core", (slot_ns - sched_ns) * k("slots") / pk},
          {"pisa", pc.parse_ns * k("slots_with_packet") / pk +
                       pc.deparse_ns * tm_ops_pp},
          {"tm", enq_deq_ns * tm_ops_pp},
          {"apps", k("handler_ns") / pk},
          {"workload", k("edge_ns") / pk},
          {"runtime", w.reference == Reference::kOneShard
                          ? measured_ns - one_shard_ns
                          : round_ns * k("windows") / pk},
      };
      double sum = 0;
      for (const auto& [layer, ns] : split) {
        samples.add("cost." + layer + "_ns_per_pkt", "ns/pkt", ns);
        sum += ns;
      }
      add("cost.sum_ns_per_pkt", "ns/pkt", sum);
      add("cost.measured_ns_per_pkt", "ns/pkt", measured_ns);
      add("trace.unattributed_share", "ratio", 1.0 - ratio(sum, measured_ns));
    }
  }

  std::printf(
      "{\"workload\": %s, \"app\": %s, \"seed\": %" PRIu64 ", \"flows\": %" PRIu64
      ", \"shards\": %zu, \"digest\": \"%s\", \"pinned_seed\": %" PRIu64
      ", \"pinned_flows\": %" PRIu64 ", \"pinned_replay_digest\": \"%s\", "
      "\"pinned\": \"%s\", %s, \"samples\": %s}\n",
      json_str(w.name).c_str(), json_str(w.app).c_str(), args.seed,
      w.spec.flows, w.options.shards, hex(ref.out.digest).c_str(), kDefaultSeed,
      w.default_flows, hex(pinned_replay_digest).c_str(), hex(pin).c_str(),
      checks.json().c_str(), samples.json().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--flows N] [--pin HEX] [--trace-out PATH]\n");
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
