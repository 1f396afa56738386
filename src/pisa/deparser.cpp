#include "pisa/deparser.hpp"

#include <utility>

namespace edp::pisa {
namespace {

/// Bytes the valid headers take in canonical order.
std::size_t header_bytes(const Phv& phv) {
  std::size_t n = 0;
  n += phv.eth ? net::EthernetHeader::kSize : 0;
  n += phv.vlan ? net::VlanHeader::kSize : 0;
  n += phv.ipv4 ? net::Ipv4Header::kSize : 0;
  if (phv.tcp) {
    n += net::TcpHeader::kSize;
  } else if (phv.udp) {
    n += net::UdpHeader::kSize;
  }
  n += phv.hula ? net::HulaProbeHeader::kSize : 0;
  n += phv.liveness ? net::LivenessHeader::kSize : 0;
  n += phv.kv ? net::KvHeader::kSize : 0;
  n += phv.int_report ? net::IntReportHeader::kSize : 0;
  return n;
}

/// Encode the valid headers in canonical order from offset 0 of `out`,
/// whose size is already final, with the IPv4 total_length/checksum and
/// UDP length computed from that size. Every encode writes each byte of
/// its header, so the result does not depend on what `out` held there.
void write_headers(const Phv& phv, net::Packet& out) {
  std::size_t off = 0;
  if (phv.eth) {
    auto eth = *phv.eth;
    // Keep the EtherType chain consistent with header validity.
    if (phv.vlan) {
      eth.ether_type = net::kEtherTypeVlan;
    }
    eth.encode(out, off);
    off += net::EthernetHeader::kSize;
  }
  if (phv.vlan) {
    phv.vlan->encode(out, off);
    off += net::VlanHeader::kSize;
  }
  if (phv.ipv4) {
    auto ip = *phv.ipv4;
    ip.total_length = static_cast<std::uint16_t>(out.size() - off);
    ip.update_checksum();
    ip.encode(out, off);
    off += net::Ipv4Header::kSize;
  }
  if (phv.tcp) {
    phv.tcp->encode(out, off);
    off += net::TcpHeader::kSize;
  } else if (phv.udp) {
    auto udp = *phv.udp;
    udp.length = static_cast<std::uint16_t>(out.size() - off);
    udp.encode(out, off);
    off += net::UdpHeader::kSize;
  }
  if (phv.hula) {
    phv.hula->encode(out, off);
    off += net::HulaProbeHeader::kSize;
  }
  if (phv.liveness) {
    phv.liveness->encode(out, off);
    off += net::LivenessHeader::kSize;
  }
  if (phv.kv) {
    phv.kv->encode(out, off);
    off += net::KvHeader::kSize;
  }
  if (phv.int_report) {
    phv.int_report->encode(out, off);
  }
}

}  // namespace

net::Packet Deparser::deparse(const Phv& phv) const {
  net::Packet out;
  deparse_into(phv, out);
  return out;
}

void Deparser::deparse_into(const Phv& phv, net::Packet& out) const {
  const std::size_t hdr = header_bytes(phv);
  std::span<const std::uint8_t> payload;
  if (phv.payload_offset < phv.packet.size()) {
    payload = phv.packet.bytes().subspan(phv.payload_offset);
  }
  out.clear();
  out.reserve(hdr + payload.size());
  out.resize(hdr);
  out.append(payload);
  write_headers(phv, out);
  out.meta() = phv.packet.meta();
}

bool Deparser::rewrites_in_place(const Phv& phv) {
  // Canonical headers of exactly the parsed region's size: deparse()'s
  // output is those headers followed by packet[payload_offset:], which is
  // the packet itself with its first payload_offset bytes re-encoded.
  return header_bytes(phv) == phv.payload_offset &&
         phv.payload_offset <= phv.packet.size();
}

net::Packet Deparser::deparse_in_place(Phv&& phv) const {
  if (!rewrites_in_place(phv)) {
    return deparse(phv);
  }
  write_headers(phv, phv.packet);
  return std::move(phv.packet);
}

}  // namespace edp::pisa
