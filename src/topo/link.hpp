// edp::topo — point-to-point links with failure injection.
//
// A link carries packets between two endpoints with a propagation delay.
// Serialization pacing belongs to the *sender* (switch port / host NIC), so
// the link models propagation and up/down state only. Failing a link drops
// packets submitted while down and notifies both endpoints' status
// callbacks — which is what raises LinkStatusChange events in attached
// switches (paper Table 1) and what the FRR / liveness experiments exercise.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "net/packet.hpp"
#include "sim/scheduler.hpp"

namespace edp::topo {

class Link {
 public:
  struct Config {
    sim::Time delay = sim::Time::micros(1);  ///< propagation, per direction
    bool up = true;
  };

  /// One attachment point of the link.
  struct End {
    std::function<void(net::Packet&&)> deliver;  ///< packet to the endpoint
    std::function<void(bool)> status;          ///< link state to the endpoint
  };

  Link(sim::Scheduler& sched, Config config)
      : sched_(sched), config_(config), up_(config.up) {}

  End& end_a() { return a_; }
  End& end_b() { return b_; }

  /// Called by endpoint A's transmitter; delivers to B after the delay.
  void send_a_to_b(net::Packet&& p) { send(std::move(p), /*to_b=*/true); }
  void send_b_to_a(net::Packet&& p) { send(std::move(p), /*to_b=*/false); }

  bool up() const { return up_; }

  /// Change link state now; notifies both ends. In-flight packets (already
  /// propagating) still arrive; packets sent while down are lost.
  void set_up(bool up);

  /// Schedule a failure / recovery.
  void fail_at(sim::Time t) {
    sched_.at(t, [this] { set_up(false); });
  }
  void recover_at(sim::Time t) {
    sched_.at(t, [this] { set_up(true); });
  }

  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t dropped_down() const { return dropped_down_; }
  const Config& config() const { return config_; }

 private:
  void send(net::Packet&& p, bool to_b);

  sim::Scheduler& sched_;
  Config config_;
  bool up_;
  End a_;
  End b_;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_down_ = 0;
};

}  // namespace edp::topo
