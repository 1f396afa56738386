#include "topo/host.hpp"

#include <utility>

#include "net/flow.hpp"

namespace edp::topo {

namespace {
/// Transmit backlog reserved up front. A NIC queue has no limit to size
/// it from; this covers traffic sources that overlap several line-rate
/// trains. Untouched slots cost no resident memory (sim::RingQueue), and
/// a deeper backlog still grows the ring.
constexpr std::size_t kTxQueueReserve = 1024;
}  // namespace

Host::Host(sim::Scheduler& sched, Config config)
    : sched_(sched), config_(std::move(config)) {
  tx_queue_.reserve(kTxQueueReserve);
}

void Host::send(net::Packet&& packet) {
  tx_queue_.push_back(std::move(packet));
  pump_tx();
}

void Host::pump_tx() {
  if (tx_busy_ || tx_queue_.empty()) {
    return;
  }
  tx_busy_ = true;
  net::Packet pkt = std::move(tx_queue_.front());
  tx_queue_.pop_front();
  const sim::Time tx_time =
      sim::serialization_time(pkt.size(), config_.nic_rate_bps);
  sched_.after(tx_time, [this, p = std::move(pkt)]() mutable {
    ++tx_packets_;
    if (tx_) {
      tx_(std::move(p));
    }
    tx_busy_ = false;
    pump_tx();
  });
}

void Host::receive(net::Packet&& packet) {
  ++rx_packets_;
  rx_bytes_ += packet.size();
  // Track per-UDP-port arrivals for experiment accounting.
  const net::FiveTuple t = net::extract_five_tuple(packet);
  if (t.protocol == net::kIpProtoUdp) {
    ++rx_by_port_[t.dst_port];
  }
  if (on_receive) {
    on_receive(packet);
  }
}

std::uint64_t Host::rx_on_port(std::uint16_t udp_dst) const {
  const auto it = rx_by_port_.find(udp_dst);
  return it == rx_by_port_.end() ? 0 : it->second;
}

}  // namespace edp::topo
