#include "analysis/recording_context.hpp"

namespace edp::analysis {

bool RecordingContext::inject_packet(net::Packet&& packet) {
  const bool ok = config_.event_architecture;
  if (!ok) {
    ++refused_;
  }
  Call& c = record(ActionKind::kInjectPacket, ok);
  c.packet = std::move(packet);
  return ok;
}

bool RecordingContext::send_packet(net::Packet&& packet, std::uint16_t port,
                                   std::uint8_t qid) {
  const bool ok = config_.event_architecture;
  if (!ok) {
    ++refused_;
  }
  Call& c = record(ActionKind::kSendPacket, ok);
  c.packet = std::move(packet);
  c.id = static_cast<std::uint64_t>(port) << 8 | qid;
  return ok;
}

core::TimerId RecordingContext::set_periodic_timer(sim::Time period,
                                                   std::uint64_t cookie) {
  const bool ok = config_.event_architecture;
  if (!ok) {
    ++refused_;
  }
  Call& c = record(ActionKind::kSetTimer, ok);
  c.rate_bounded = period > sim::Time::zero();
  c.period = period;
  c.periodic = true;
  c.id = ok ? next_timer_++ : 0;
  c.cookie = cookie;
  return static_cast<core::TimerId>(c.id);
}

core::TimerId RecordingContext::set_oneshot_timer(sim::Time delay,
                                                  std::uint64_t cookie) {
  const bool ok = config_.event_architecture;
  if (!ok) {
    ++refused_;
  }
  Call& c = record(ActionKind::kSetTimer, ok);
  // A oneshot timer with a nonzero delay fires at most once per arming —
  // the re-arm path is itself delayed, so the edge cannot amplify.
  c.rate_bounded = delay > sim::Time::zero();
  c.period = delay;
  c.id = ok ? next_timer_++ : 0;
  c.cookie = cookie;
  return static_cast<core::TimerId>(c.id);
}

bool RecordingContext::cancel_timer(core::TimerId id) {
  if (id == 0) {
    zero_ids_.push_back(ZeroIdUse{ActionKind::kCancelTimer, current_});
    return false;
  }
  return config_.event_architecture && id < next_timer_;
}

core::GeneratorId RecordingContext::add_generator(
    core::PacketGenerator::Config config) {
  const bool ok = config_.event_architecture;
  if (!ok) {
    ++refused_;
  }
  Call& c = record(ActionKind::kAddGenerator, ok);
  c.rate_bounded = config.period > sim::Time::zero();
  c.period = config.period;
  c.periodic = true;
  c.id = ok ? next_generator_++ : 0;
  c.packet = std::move(config.packet_template);
  return static_cast<core::GeneratorId>(c.id);
}

void RecordingContext::trigger_generator(core::GeneratorId id,
                                         std::uint64_t n) {
  if (id == 0) {
    zero_ids_.push_back(ZeroIdUse{ActionKind::kTriggerGenerator, current_});
    return;
  }
  if (!config_.event_architecture) {
    ++refused_;
    return;
  }
  Call& c = record(ActionKind::kTriggerGenerator, true);
  c.id = id;
  c.cookie = n;
}

bool RecordingContext::set_generator_template(core::GeneratorId id,
                                              net::Packet tmpl) {
  if (id == 0) {
    zero_ids_.push_back(ZeroIdUse{ActionKind::kSetTemplate, current_});
    return false;
  }
  if (!config_.event_architecture) {
    ++refused_;
    return false;
  }
  // Remember the freshest template so chain simulation emits what the
  // program would actually generate.
  for (auto it = calls_.rbegin(); it != calls_.rend(); ++it) {
    if (it->kind == ActionKind::kAddGenerator && it->id == id) {
      it->packet = std::move(tmpl);
      return true;
    }
  }
  return false;
}

bool RecordingContext::raise_user_event(const core::UserEventData& data) {
  const bool ok = config_.event_architecture;
  if (!ok) {
    ++refused_;
  }
  Call& c = record(ActionKind::kRaiseUserEvent, ok);
  c.cookie = data.id;
  c.user = data;
  return ok;
}

void RecordingContext::notify_control_plane(const core::ControlEventData& msg) {
  // Available on every architecture (the punt path).
  punts_.push_back(Punt{msg.opcode, current_, drive_});
}

}  // namespace edp::analysis
