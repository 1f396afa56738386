#include "topo/control_plane.hpp"

#include <utility>

namespace edp::topo {

void ControlPlaneAgent::attach(
    core::EventSwitch& sw,
    std::function<void(const core::ControlEventData&)> handler) {
  sw.on_punt = [this, handler = std::move(handler)](
                   const core::ControlEventData& msg) {
    ++from_switch_;
    const sim::Time delay = config_.channel_latency + config_.processing_time;
    sched_.after(delay, [handler, msg] { handler(msg); });
  };
}

void ControlPlaneAgent::send_control_event(core::EventSwitch& sw,
                                           core::ControlEventData data) {
  ++to_switch_;
  sched_.after(config_.channel_latency,
               [&sw, d = std::move(data)] { sw.control_event(d); });
}

void ControlPlaneAgent::inject_packet(core::EventSwitch& sw,
                                      net::Packet&& packet) {
  ++to_switch_;
  ++injected_;
  sched_.after(config_.channel_latency, [&sw, p = std::move(packet)]() mutable {
    sw.inject_from_control_plane(std::move(p));
  });
}

std::unique_ptr<sim::PeriodicTask> ControlPlaneAgent::every(
    sim::Time period, std::function<void()> fn) {
  auto task =
      std::make_unique<sim::PeriodicTask>(sched_, period, std::move(fn));
  task->start();
  return task;
}

}  // namespace edp::topo
