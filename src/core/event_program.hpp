// edp::core — the event-driven programming model (paper §2).
//
// An `EventProgram` is the C++ transliteration of an event-driven P4
// program: one handler per data-plane event kind, each the body of a
// logical pipeline from Figure 2. Handlers share state through the
// program's member externs (SharedRegister / AggregatedRegister / tables),
// exactly as P4 controls share extern instances declared at top level.
//
// The `EventContext` is the architecture surface a handler may touch:
// time/cycle, timers, the packet generator, user events, and the
// control-plane channel. On a baseline PISA architecture (paper Figure 1)
// the non-packet facilities are unavailable — the context reports and
// counts such attempts so baseline-vs-event comparisons are honest.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>

#include "core/event.hpp"
#include "core/packet_generator.hpp"
#include "pisa/phv.hpp"

namespace edp::core {

class AggregatedRegister;

using TimerId = std::uint32_t;

/// Handler identity for the default-handler trace, aligned with the
/// analyzer's Handler enum (attach first, then the 13 data-plane events).
enum class ProgramHandler : std::uint8_t {
  kAttach = 0,
  kIngress,
  kEgress,
  kRecirculate,
  kGenerated,
  kTransmit,
  kEnqueue,
  kDequeue,
  kOverflow,
  kUnderflow,
  kTimer,
  kControl,
  kLinkStatus,
  kUser,
};
inline constexpr std::size_t kNumProgramHandlers = 14;

/// Install a bitmask (nullptr to uninstall) that each *default* handler
/// body sets its ProgramHandler bit in when invoked. The analysis driver
/// installs one around its drives: a handler that was driven but only ever
/// hit the default body is provably a no-op, so the optimizer may elide
/// its event delivery entirely. Returns the previously installed mask.
/// Single-threaded analysis use only, like the register probe.
std::uint32_t* exchange_default_handler_trace(std::uint32_t* mask);

/// Facilities the architecture exposes to event handlers.
class EventContext {
 public:
  virtual ~EventContext() = default;

  virtual sim::Time now() const = 0;
  /// Current pipeline clock cycle (drives register port accounting).
  virtual std::uint64_t cycle() const = 0;
  virtual std::uint16_t num_ports() const = 0;
  virtual std::uint32_t switch_id() const = 0;
  virtual bool link_up(std::uint16_t port) const = 0;

  /// Queue occupancy introspection (bytes), as modern TMs expose to ingress.
  virtual std::size_t queue_bytes(std::uint16_t port,
                                  std::uint8_t qid) const = 0;

  /// Inject a program-built packet into the pipeline as a GeneratedPacket
  /// event (it will be parsed and handled by on_generated). Returns false
  /// on a baseline architecture (no generation support).
  virtual bool inject_packet(net::Packet&& packet) = 0;

  /// Enqueue a program-built packet directly to (port, qid), bypassing the
  /// ingress pipeline (egress injection). False on baseline architectures.
  virtual bool send_packet(net::Packet&& packet, std::uint16_t port,
                           std::uint8_t qid = 0) = 0;

  /// Timer facilities (TimerExpiration events). Return 0 on baseline
  /// architectures (and count the refused request).
  virtual TimerId set_periodic_timer(sim::Time period,
                                     std::uint64_t cookie = 0) = 0;
  virtual TimerId set_oneshot_timer(sim::Time delay,
                                    std::uint64_t cookie = 0) = 0;
  virtual bool cancel_timer(TimerId id) = 0;

  /// Packet generator configuration (GeneratedPacket events). Returns 0 on
  /// baseline architectures.
  virtual GeneratorId add_generator(PacketGenerator::Config config) = 0;
  virtual void trigger_generator(GeneratorId id, std::uint64_t n = 1) = 0;
  virtual bool set_generator_template(
      GeneratorId id, net::Packet tmpl) = 0;  // hotpath-ok: set-up

  /// Raise a user event (delivered to on_user via the Event Merger).
  virtual bool raise_user_event(const UserEventData& data) = 0;

  /// Send a message to the control plane (the punt path; the CP agent adds
  /// its channel latency). Available on every architecture.
  virtual void notify_control_plane(const ControlEventData& msg) = 0;
};

/// Convention for carrying the paper's `enq_meta` / `deq_meta` through the
/// PHV user words: ingress writes them; the architecture copies them into
/// the enqueue/dequeue event payloads.
inline constexpr std::size_t kEnqMetaBase = 0;  ///< user[0..3]
inline constexpr std::size_t kDeqMetaBase = 4;  ///< user[4..7]

/// Control-plane opcode convention: when a program needs a timer or packet
/// generator and the architecture refuses (baseline PISA has neither), the
/// handler punts this opcode so the control plane can emulate the facility
/// (args[0] = a program-chosen facility cookie). The static analyzer
/// (src/analysis/) warns about refused facility requests that are not
/// followed by this punt — silent degradation is the bug class §6 of the
/// paper works around by hand.
inline constexpr std::uint32_t kOpFacilityUnavailable = 0xFA11;

/// Base class for data-plane programs. Default handlers do nothing, so a
/// program overrides exactly the events it cares about — the paper's
/// "define custom event handling logic" per event.
class EventProgram {
 public:
  virtual ~EventProgram() = default;

  // -- packet events (PHV-carrying) -----------------------------------------
  virtual void on_ingress(pisa::Phv& phv, EventContext& ctx);
  virtual void on_egress(pisa::Phv& phv, EventContext& ctx);
  virtual void on_recirculate(pisa::Phv& phv, EventContext& ctx);
  virtual void on_generated(pisa::Phv& phv, EventContext& ctx);

  // -- buffer events ----------------------------------------------------------
  virtual void on_enqueue(const tm_::EnqueueRecord& e, EventContext& ctx);
  virtual void on_dequeue(const tm_::DequeueRecord& e, EventContext& ctx);
  virtual void on_overflow(const tm_::DropRecord& e, EventContext& ctx);
  virtual void on_underflow(const tm_::UnderflowRecord& e, EventContext& ctx);

  // -- architectural events ----------------------------------------------------
  virtual void on_transmit(const TransmitRecord& e, EventContext& ctx);
  virtual void on_timer(const TimerEventData& e, EventContext& ctx);
  virtual void on_control(const ControlEventData& e, EventContext& ctx);
  virtual void on_link_status(const LinkStatusEventData& e, EventContext& ctx);
  virtual void on_user(const UserEventData& e, EventContext& ctx);

  /// Called once when the program is attached to a switch — the place to
  /// configure timers and packet generators (P4's control-plane-free
  /// initialization; on baseline architectures those calls fail).
  virtual void on_attach(EventContext& ctx);

  // -- optimizer hooks (src/analysis/optimizer.hpp) ----------------------------

  /// Ask the program to re-realize the named SharedRegister as an
  /// AggregatedRegister (paper §4 side arrays). Called by the optimizer's
  /// aggregation-insertion transform on a *fresh* instance, before any
  /// traffic. Returns true if the register is now aggregated (idempotent);
  /// the default declines every request.
  virtual bool realize_aggregated(std::string_view reg);

  /// Visit every live AggregatedRegister so the execution environment can
  /// register it for idle-cycle drains (EventSwitch::register_aggregated).
  /// Setup-time only — never on the per-event path.
  virtual void visit_aggregated(
      const std::function<void(AggregatedRegister&)>& visit);

  // -- enq/deq metadata helpers (paper §2 microburst.p4 idiom) -----------------
  static void set_enq_meta(pisa::Phv& phv, std::size_t word,
                           std::uint64_t value) {
    phv.user[kEnqMetaBase + (word % 4)] = value;
  }
  static void set_deq_meta(pisa::Phv& phv, std::size_t word,
                           std::uint64_t value) {
    phv.user[kDeqMetaBase + (word % 4)] = value;
  }
};

}  // namespace edp::core
