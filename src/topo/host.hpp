// edp::topo — end hosts.
//
// A host is a NIC with an address, a transmit pacing loop (so traffic
// generators can exceed the NIC rate without teleporting bytes), and a
// receive hook for applications (sinks, KV servers, monitors). Receive
// statistics are kept per UDP destination port, which is how the
// experiments separate concurrent flows and protocols.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

#include "net/headers.hpp"
#include "net/packet.hpp"
#include "sim/ring_queue.hpp"
#include "sim/scheduler.hpp"

namespace edp::topo {

class Host {
 public:
  struct Config {
    std::string name = "h0";
    net::MacAddress mac;
    net::Ipv4Address ip;
    double nic_rate_bps = 10e9;
  };

  Host(sim::Scheduler& sched, Config config);

  const std::string& name() const { return config_.name; }
  net::MacAddress mac() const { return config_.mac; }
  net::Ipv4Address ip() const { return config_.ip; }

  /// Wire the NIC to a link direction (set by Network::connect).
  void connect_tx(std::function<void(net::Packet&&)> tx) {
    tx_ = std::move(tx);
  }

  /// Queue a packet for transmission (paced at the NIC rate).
  void send(net::Packet&& packet);

  /// Entry point for packets arriving from the link.
  void receive(net::Packet&& packet);

  /// Application receive hook (runs after statistics are recorded).
  std::function<void(const net::Packet&)> on_receive;

  // ---- statistics -----------------------------------------------------------
  std::uint64_t tx_packets() const { return tx_packets_; }
  std::uint64_t rx_packets() const { return rx_packets_; }
  std::uint64_t rx_bytes() const { return rx_bytes_; }
  /// Packets received with the given UDP destination port.
  std::uint64_t rx_on_port(std::uint16_t udp_dst) const;
  std::size_t tx_backlog() const { return tx_queue_.size(); }

 private:
  void pump_tx();

  sim::Scheduler& sched_;
  Config config_;
  std::function<void(net::Packet&&)> tx_;
  sim::RingQueue<net::Packet> tx_queue_;
  bool tx_busy_ = false;

  std::uint64_t tx_packets_ = 0;
  std::uint64_t rx_packets_ = 0;
  std::uint64_t rx_bytes_ = 0;
  std::unordered_map<std::uint16_t, std::uint64_t> rx_by_port_;
};

}  // namespace edp::topo
