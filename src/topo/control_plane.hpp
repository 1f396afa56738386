// edp::topo — the control plane, as a latency-bound agent.
//
// The paper's comparisons hinge on where work happens: the data plane
// reacts within pipeline cycles, the control plane only after a software
// round trip (PCIe + driver + process scheduling). `ControlPlaneAgent`
// models that boundary: every message in either direction pays the channel
// latency, and every message is counted — the CP message load is exactly
// the overhead the paper says event-driven architectures remove (CMS
// resets, probe generation, failure handling).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/event_switch.hpp"
#include "sim/scheduler.hpp"

namespace edp::topo {

class ControlPlaneAgent {
 public:
  struct Config {
    /// One-way data-plane <-> control-plane latency (per message).
    sim::Time channel_latency = sim::Time::micros(500);
    /// Software processing time per message before a response can leave.
    sim::Time processing_time = sim::Time::micros(50);
  };

  ControlPlaneAgent(sim::Scheduler& sched, Config config)
      : sched_(sched), config_(config) {}

  /// Attach to a switch's punt path. `handler` runs *at the control plane*
  /// (after channel latency + processing time).
  void attach(core::EventSwitch& sw,
              std::function<void(const core::ControlEventData&)> handler);

  /// CP -> switch control event (arrives after the channel latency).
  void send_control_event(core::EventSwitch& sw,
                          core::ControlEventData data);

  /// CP -> switch packet-out (arrives after the channel latency). This is
  /// how a baseline architecture emulates packet generation (§6).
  void inject_packet(core::EventSwitch& sw, net::Packet&& packet);

  /// Run `fn` at the CP every `period` (e.g. periodic CMS reset, probe
  /// generation). Returns the task handle (caller keeps it alive).
  std::unique_ptr<sim::PeriodicTask> every(sim::Time period,
                                           std::function<void()> fn);

  // ---- load accounting --------------------------------------------------------
  std::uint64_t messages_from_switch() const { return from_switch_; }
  std::uint64_t messages_to_switch() const { return to_switch_; }
  std::uint64_t packets_injected() const { return injected_; }
  const Config& config() const { return config_; }

 private:
  sim::Scheduler& sched_;
  Config config_;
  std::uint64_t from_switch_ = 0;
  std::uint64_t to_switch_ = 0;
  std::uint64_t injected_ = 0;
};

}  // namespace edp::topo
