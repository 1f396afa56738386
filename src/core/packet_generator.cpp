#include "core/packet_generator.hpp"

#include <cassert>

namespace edp::core {

GeneratorId PacketGenerator::add(Config config) {
  assert(config.period > sim::Time::zero() || config.count > 0);
  const GeneratorId id = next_id_++;
  Gen g{std::move(config), 0, 0};
  const sim::Time first_delay =
      g.config.start_immediately ? sim::Time::zero() : g.config.period;
  auto [it, inserted] = gens_.emplace(id, std::move(g));
  assert(inserted);
  it->second.pending = sched_.after(first_delay, [this, id] { fire(id); });
  return id;
}

void PacketGenerator::fire(GeneratorId id) {
  const auto it = gens_.find(id);
  if (it == gens_.end()) {
    return;  // removed while the callback was in flight
  }
  Gen& g = it->second;
  g.pending = 0;
  emit(g, id);
  if (g.config.count != 0 && g.emitted >= g.config.count) {
    gens_.erase(it);
    return;
  }
  if (g.config.period > sim::Time::zero()) {
    g.pending = sched_.after(g.config.period, [this, id] { fire(id); });
  }
}

void PacketGenerator::emit(Gen& g, GeneratorId id) {
  ++g.emitted;
  ++generated_;
  if (on_generate) {
    on_generate(id, net::Packet(g.config.packet_template));  // a clone
  }
}

void PacketGenerator::trigger(GeneratorId id, std::uint64_t n) {
  const auto it = gens_.find(id);
  if (it == gens_.end()) {
    return;
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    emit(it->second, id);
  }
}

bool PacketGenerator::remove(GeneratorId id) {
  const auto it = gens_.find(id);
  if (it == gens_.end()) {
    return false;
  }
  if (it->second.pending != 0) {
    sched_.cancel(it->second.pending);
  }
  gens_.erase(it);
  return true;
}

bool PacketGenerator::set_template(GeneratorId id,
                                   net::Packet packet_template) {
  const auto it = gens_.find(id);
  if (it == gens_.end()) {
    return false;
  }
  it->second.config.packet_template = std::move(packet_template);
  return true;
}

std::size_t PacketGenerator::template_bytes() const {
  std::size_t total = 0;
  for (const auto& [id, g] : gens_) {
    total += g.config.packet_template.size();
  }
  return total;
}

}  // namespace edp::core
