// edp::analysis — an EventContext that records instead of simulating.
//
// The analyzer never builds a network: it hands each handler this context,
// which answers queries with fixed values and records every facility call
// (timers, generators, injections, user events, punts). The recorded
// actions are the raw material for the event-generation graph and the
// resource lints. In baseline mode it refuses exactly the facilities a
// baseline PISA architecture lacks, so the resource-lint pass can observe
// how a program behaves when its requests fail.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/findings.hpp"
#include "core/event_program.hpp"
#include "net/packet.hpp"

namespace edp::analysis {

class RecordingContext : public core::EventContext {
 public:
  struct Config {
    /// Event architecture (facilities granted) vs baseline PISA (refused).
    bool event_architecture = true;
    std::uint16_t num_ports = 4;
    std::uint32_t switch_id = 1;
    /// Fixed answer for queue_bytes() queries.
    std::size_t queue_bytes = 0;
  };

  /// One recorded facility call.
  struct Call {
    ActionKind kind = ActionKind::kForward;
    Handler during = Handler::kAttach;
    std::size_t drive = 0;     ///< which begin_drive() window it happened in
    bool accepted = false;     ///< architecture granted the request
    /// Timers/generators with a nonzero period cannot amplify (the
    /// architecture bounds their rate).
    bool rate_bounded = false;
    /// Timer period / oneshot delay / generator period — lets the
    /// pipeline-mapping pass derive the handler's event rate.
    sim::Time period = sim::Time::zero();
    /// True for periodic timers and generators (the rate recurs).
    bool periodic = false;
    /// Id the call returned (timer/generator) or operated on (trigger,
    /// set_template, cancel).
    std::uint64_t id = 0;
    std::uint64_t cookie = 0;  ///< timer cookie / user event id
    net::Packet packet;        ///< inject/send payload, generator template
    core::UserEventData user;  ///< raise_user_event payload
  };

  /// One recorded control-plane punt.
  struct Punt {
    std::uint32_t opcode = 0;
    Handler during = Handler::kAttach;
    std::size_t drive = 0;
  };

  /// A facility call that passed id 0 — the refusal sentinel — meaning the
  /// program used an acquisition result without checking it.
  struct ZeroIdUse {
    ActionKind kind = ActionKind::kTriggerGenerator;
    Handler during = Handler::kAttach;
  };

  explicit RecordingContext(Config config) : config_(config) {}

  // ---- driver interface -----------------------------------------------------

  /// Open a new drive window: one handler invocation with one stimulus.
  /// Advances time by 10us and the cycle by 1 so per-cycle port accounting
  /// and rate logic see distinct cycles.
  void begin_drive(Handler handler) {
    current_ = handler;
    ++drive_;
    now_ = now_ + sim::Time::micros(10);
    ++cycle_;
  }

  Handler current_handler() const { return current_; }
  std::size_t drive_index() const { return drive_; }

  /// Change the fixed queue_bytes() answer mid-run, so the driver can
  /// replay buffer events against a deep queue (threshold exploration).
  void set_queue_bytes(std::size_t bytes) { config_.queue_bytes = bytes; }

  const Config& config() const { return config_; }
  const std::vector<Call>& calls() const { return calls_; }
  const std::vector<Punt>& punts() const { return punts_; }
  const std::vector<ZeroIdUse>& zero_id_uses() const { return zero_ids_; }
  std::uint64_t refused_ops() const { return refused_; }

  // ---- EventContext ---------------------------------------------------------

  sim::Time now() const override { return now_; }
  std::uint64_t cycle() const override { return cycle_; }
  std::uint16_t num_ports() const override { return config_.num_ports; }
  std::uint32_t switch_id() const override { return config_.switch_id; }
  bool link_up(std::uint16_t) const override { return true; }
  std::size_t queue_bytes(std::uint16_t, std::uint8_t) const override {
    return config_.queue_bytes;
  }

  bool inject_packet(net::Packet&& packet) override;
  bool send_packet(net::Packet&& packet, std::uint16_t port,
                   std::uint8_t qid) override;

  core::TimerId set_periodic_timer(sim::Time period,
                                   std::uint64_t cookie) override;
  core::TimerId set_oneshot_timer(sim::Time delay,
                                  std::uint64_t cookie) override;
  bool cancel_timer(core::TimerId id) override;

  core::GeneratorId add_generator(
      core::PacketGenerator::Config config) override;
  void trigger_generator(core::GeneratorId id, std::uint64_t n) override;
  bool set_generator_template(core::GeneratorId id,
                              net::Packet tmpl) override;

  bool raise_user_event(const core::UserEventData& data) override;
  void notify_control_plane(const core::ControlEventData& msg) override;

 private:
  Call& record(ActionKind kind, bool accepted) {
    Call c;
    c.kind = kind;
    c.during = current_;
    c.drive = drive_;
    c.accepted = accepted;
    calls_.push_back(std::move(c));
    return calls_.back();
  }

  Config config_;
  Handler current_ = Handler::kAttach;
  std::size_t drive_ = 0;
  // Start late enough that "dead since attach" logic (e.g. liveness
  // timeouts) does not fire on the very first drive.
  sim::Time now_ = sim::Time::millis(1);
  std::uint64_t cycle_ = 1;

  core::TimerId next_timer_ = 1;
  core::GeneratorId next_generator_ = 1;

  std::vector<Call> calls_;
  std::vector<Punt> punts_;
  std::vector<ZeroIdUse> zero_ids_;
  std::uint64_t refused_ = 0;
};

}  // namespace edp::analysis
