#include "net/packet_builder.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>

namespace edp::net {
namespace {

/// Grow the packet by `bytes` zeros at the end and return the old size
/// (the offset the new layer starts at).
std::size_t extend(Packet& p, std::size_t bytes) {
  const std::size_t off = p.size();
  p.pad_to(off + bytes);
  return off;
}

}  // namespace

PacketBuilder::PacketBuilder() : ipv4_off_(SIZE_MAX), udp_off_(SIZE_MAX) {}

PacketBuilder& PacketBuilder::ethernet(MacAddress src, MacAddress dst,
                                       std::uint16_t ether_type) {
  const std::size_t off = extend(pkt_, EthernetHeader::kSize);
  EthernetHeader h;
  h.src = src;
  h.dst = dst;
  h.ether_type = ether_type;
  h.encode(pkt_, off);
  return *this;
}

PacketBuilder& PacketBuilder::vlan(std::uint16_t vid, std::uint8_t pcp) {
  // The Ethernet layer must already be present; rewrite its ether_type to
  // VLAN and carry the original type into the tag.
  assert(pkt_.size() >= EthernetHeader::kSize);
  const std::uint16_t inner_type = pkt_.u16(12);
  pkt_.set_u16(12, kEtherTypeVlan);
  const std::size_t off = extend(pkt_, VlanHeader::kSize);
  VlanHeader h;
  h.vid = vid;
  h.pcp = pcp;
  h.ether_type = inner_type;
  h.encode(pkt_, off);
  return *this;
}

PacketBuilder& PacketBuilder::ipv4(Ipv4Address src, Ipv4Address dst,
                                   std::uint8_t protocol, std::uint8_t ttl,
                                   std::uint8_t dscp) {
  ipv4_off_ = extend(pkt_, Ipv4Header::kSize);
  Ipv4Header h;
  h.src = src;
  h.dst = dst;
  h.protocol = protocol;
  h.ttl = ttl;
  h.dscp = dscp;
  h.encode(pkt_, ipv4_off_);
  return *this;
}

PacketBuilder& PacketBuilder::udp(std::uint16_t src_port,
                                  std::uint16_t dst_port) {
  udp_off_ = extend(pkt_, UdpHeader::kSize);
  UdpHeader h;
  h.src_port = src_port;
  h.dst_port = dst_port;
  h.encode(pkt_, udp_off_);
  return *this;
}

PacketBuilder& PacketBuilder::tcp(std::uint16_t src_port,
                                  std::uint16_t dst_port, std::uint32_t seq,
                                  std::uint8_t flags) {
  const std::size_t off = extend(pkt_, TcpHeader::kSize);
  TcpHeader h;
  h.src_port = src_port;
  h.dst_port = dst_port;
  h.seq = seq;
  h.flags = flags;
  h.window = 0xffff;
  h.encode(pkt_, off);
  return *this;
}

PacketBuilder& PacketBuilder::hula_probe(const HulaProbeHeader& h) {
  const std::size_t off = extend(pkt_, HulaProbeHeader::kSize);
  h.encode(pkt_, off);
  return *this;
}

PacketBuilder& PacketBuilder::liveness(const LivenessHeader& h) {
  const std::size_t off = extend(pkt_, LivenessHeader::kSize);
  h.encode(pkt_, off);
  return *this;
}

PacketBuilder& PacketBuilder::int_report(const IntReportHeader& h) {
  const std::size_t off = extend(pkt_, IntReportHeader::kSize);
  h.encode(pkt_, off);
  return *this;
}

PacketBuilder& PacketBuilder::kv(const KvHeader& h) {
  const std::size_t off = extend(pkt_, KvHeader::kSize);
  h.encode(pkt_, off);
  return *this;
}

PacketBuilder& PacketBuilder::payload(std::size_t n) {
  const std::size_t off = extend(pkt_, n);
  // Write the 0,1,2,... ramp straight into the buffer: one bounds check for
  // the whole run instead of a set_u8 per byte.
  std::uint8_t* p = pkt_.bytes().data() + off;
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<std::uint8_t>(i & 0xff);
  }
  return *this;
}

PacketBuilder& PacketBuilder::pad_to(std::size_t n) {
  min_size_ = n;
  return *this;
}

Packet PacketBuilder::build() {
  pkt_.pad_to(min_size_);
  if (ipv4_off_ != SIZE_MAX) {
    auto ip = Ipv4Header::decode(pkt_, ipv4_off_);
    ip.total_length =
        static_cast<std::uint16_t>(pkt_.size() - ipv4_off_);
    ip.update_checksum();
    ip.encode(pkt_, ipv4_off_);
  }
  if (udp_off_ != SIZE_MAX) {
    auto udp = UdpHeader::decode(pkt_, udp_off_);
    udp.length = static_cast<std::uint16_t>(pkt_.size() - udp_off_);
    udp.encode(pkt_, udp_off_);
  }
  Packet out = std::move(pkt_);  // leaves pkt_ empty for the next build
  ipv4_off_ = udp_off_ = SIZE_MAX;
  min_size_ = 0;
  return out;
}

namespace {

constexpr std::size_t kUdpHeaders =
    EthernetHeader::kSize + Ipv4Header::kSize + UdpHeader::kSize;
constexpr std::size_t kIpv4Off = EthernetHeader::kSize;
constexpr std::size_t kUdpOff = kIpv4Off + Ipv4Header::kSize;
/// Template payload: 16 periods of PacketBuilder::payload's 0..255 ramp. The
/// ramp restarts every 256 bytes, so longer payloads repeat the template.
constexpr std::size_t kTemplatePayload = 4096;

/// The frame make_udp_packet stamps from: the PacketBuilder chain's output
/// for the largest template payload, with zero addresses and ports. Only
/// the addresses, ports, lengths and IPv4 checksum differ per packet.
const std::array<std::uint8_t, kUdpHeaders + kTemplatePayload>&
udp_template() {
  static const auto bytes = [] {
    const Packet p = PacketBuilder()
                         .ethernet(MacAddress::from_u64(0x020000000001),
                                   MacAddress::from_u64(0x020000000002))
                         .ipv4(Ipv4Address(0), Ipv4Address(0), kIpProtoUdp)
                         .udp(0, 0)
                         .payload(kTemplatePayload)
                         .build();
    std::array<std::uint8_t, kUdpHeaders + kTemplatePayload> b{};
    std::copy(p.bytes().begin(), p.bytes().end(), b.begin());
    return b;
  }();
  return bytes;
}

}  // namespace

Packet make_udp_packet(Ipv4Address src, Ipv4Address dst,
                       std::uint16_t src_port, std::uint16_t dst_port,
                       std::size_t total_size) {
  // Same bytes as PacketBuilder().ethernet().ipv4().udp().payload()
  // .pad_to(total_size).build(), written once into one exact-size buffer:
  // copy the template, then patch what varies.
  const auto& tmpl = udp_template();
  const std::size_t size = std::max(total_size, kUdpHeaders);
  Packet p = Packet::uninitialized(size);
  std::uint8_t* out = p.bytes().data();
  std::size_t done = std::min(size, tmpl.size());
  std::memcpy(out, tmpl.data(), done);
  while (done < size) {
    const std::size_t n = std::min(size - done, kTemplatePayload);
    std::memcpy(out + done, tmpl.data() + kUdpHeaders, n);
    done += n;
  }

  Ipv4Header ip;
  ip.src = src;
  ip.dst = dst;
  ip.protocol = kIpProtoUdp;
  ip.total_length = static_cast<std::uint16_t>(size - kIpv4Off);
  ip.update_checksum();
  p.set_u16(kIpv4Off + 2, ip.total_length);
  p.set_u16(kIpv4Off + 10, ip.checksum);
  p.set_u32(kIpv4Off + 12, src.value());
  p.set_u32(kIpv4Off + 16, dst.value());
  p.set_u16(kUdpOff, src_port);
  p.set_u16(kUdpOff + 2, dst_port);
  p.set_u16(kUdpOff + 4, static_cast<std::uint16_t>(size - kUdpOff));
  return p;
}

}  // namespace edp::net
