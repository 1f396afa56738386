// edp::core — the configurable packet generator (paper §5, Figure 4).
//
// Holds packet templates and emits clones on a configured period (or as a
// burst on demand). Generated packets enter the pipeline as
// GeneratedPacket events — this is the facility HULA-style probes and
// liveness echoes use to originate packets entirely in the data plane.
// (On Tofino, §6, the control plane must configure an equivalent
// fixed-function generator; on baseline PISA there is none.)
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/packet.hpp"
#include "sim/scheduler.hpp"

namespace edp::core {

using GeneratorId = std::uint32_t;

class PacketGenerator {
 public:
  struct Config {
    net::Packet packet_template;             ///< cloned for each emission
    sim::Time period = sim::Time::micros(100);
    std::uint64_t count = 0;                 ///< 0 = unlimited
    bool start_immediately = true;           ///< else first fire after period
  };

  explicit PacketGenerator(sim::Scheduler& sched) : sched_(sched) {}

  /// Emission callback: (generator id, cloned template). The EventSwitch
  /// routes these into the pipeline as GeneratedPacket events.
  std::function<void(GeneratorId, net::Packet&&)> on_generate;

  /// Install and start a periodic generator.
  GeneratorId add(Config config);

  /// Emit `n` clones of generator `id`'s template right now (single-shot
  /// burst; used by event handlers that need to send a packet *now*).
  void trigger(GeneratorId id, std::uint64_t n = 1);

  /// Stop and remove a generator.
  bool remove(GeneratorId id);

  /// Replace the template of a running generator (e.g. update a probe's
  /// fields); takes effect on the next emission.
  bool set_template(GeneratorId id,
                    net::Packet packet_template);  // hotpath-ok: set-up

  std::uint64_t generated() const { return generated_; }
  std::size_t active() const { return gens_.size(); }

  /// Modeled template buffer footprint (for the resource model).
  std::size_t template_bytes() const;

 private:
  struct Gen {
    Config config;
    std::uint64_t emitted = 0;
    sim::EventId pending = 0;
  };

  void fire(GeneratorId id);
  void emit(Gen& g, GeneratorId id);

  sim::Scheduler& sched_;
  std::unordered_map<GeneratorId, Gen> gens_;
  GeneratorId next_id_ = 1;
  std::uint64_t generated_ = 0;
};

}  // namespace edp::core
