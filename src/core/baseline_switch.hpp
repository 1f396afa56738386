// edp::core — baseline PISA comparator (paper Figure 1, §6).
//
// `BaselineSwitch` is a convenience facade over EventSwitch configured as a
// baseline PISA architecture: the program sees packet events only, and the
// only ways to approximate the paper's events are the two escape hatches
// modern targets actually offer (§6, Tofino):
//
//   * control-plane packet-out (`inject_from_control_plane`) — how a CP
//     emulates a packet generator / timers, paying the CP channel latency;
//   * recirculation — the program may set std_meta.recirculate to re-enter
//     the ingress pipeline.
//
// Everything else (timers, pktgen, user events, enqueue/dequeue delivery)
// is refused and counted, so benches can report exactly what the baseline
// could not do.
#pragma once

#include "core/event_switch.hpp"

namespace edp::core {

/// Build a baseline-PISA configuration from an event-switch configuration
/// (same ports/rates/queues; event facilities disabled, PSA-style egress
/// pipeline enabled since the PSA has one).
EventSwitchConfig make_baseline_config(EventSwitchConfig config);

class BaselineSwitch {
 public:
  BaselineSwitch(sim::Scheduler& sched, EventSwitchConfig config)
      : sw_(sched, make_baseline_config(std::move(config))) {}

  /// The underlying device (all wiring goes through it).
  EventSwitch& device() { return sw_; }
  const EventSwitch& device() const { return sw_; }

  // Facade for the facilities a baseline architecture really has.
  void set_program(EventProgram* program) { sw_.set_program(program); }
  void connect_tx(std::uint16_t port,
                  std::function<void(net::Packet&&)> tx) {
    sw_.connect_tx(port, std::move(tx));
  }
  void receive(std::uint16_t port, net::Packet&& packet) {
    sw_.receive(port, std::move(packet));
  }
  void inject_from_control_plane(net::Packet&& packet) {
    sw_.inject_from_control_plane(std::move(packet));
  }
  void set_link_status(std::uint16_t port, bool up) {
    // The hardware still knows the link state (the MAC does); the *event*
    // is simply never delivered to the program on a baseline device.
    sw_.set_link_status(port, up);
  }

  const SwitchCounters& counters() const { return sw_.counters(); }

 private:
  EventSwitch sw_;
};

}  // namespace edp::core
