#include "pisa/parser.hpp"

#include <utility>

namespace edp::pisa {
namespace {

using net::EthernetHeader;
using net::HulaProbeHeader;
using net::IntReportHeader;
using net::Ipv4Header;
using net::KvHeader;
using net::LivenessHeader;
using net::TcpHeader;
using net::UdpHeader;
using net::VlanHeader;

/// True if the packet has at least `need` bytes from `off`.
bool have(const Phv& phv, std::size_t off, std::size_t need) {
  return off + need <= phv.packet.size();
}

}  // namespace

void Parser::add_state(const std::string& name, ParseState state) {
  states_[name] = std::move(state);
  standard_graph_ = false;  // custom graph: use the generic dispatcher
}

Parser Parser::standard() {
  Parser p;

  p.add_state("start", [](Phv&, std::size_t off) {
    return ParseStep{"ethernet", off};
  });

  p.add_state("ethernet", [](Phv& phv, std::size_t off) -> ParseStep {
    if (!have(phv, off, EthernetHeader::kSize)) {
      return {Parser::kReject, off};
    }
    phv.eth = EthernetHeader::decode(phv.packet, off);
    off += EthernetHeader::kSize;
    switch (phv.eth->ether_type) {
      case net::kEtherTypeVlan:
        return {"vlan", off};
      case net::kEtherTypeIpv4:
        return {"ipv4", off};
      case net::kEtherTypeHula:
        return {"hula", off};
      case net::kEtherTypeLiveness:
        return {"liveness", off};
      case net::kEtherTypeCarrier:
        // Event-metadata carrier frame: nothing further to parse.
        return {Parser::kAccept, off};
      default:
        return {Parser::kAccept, off};
    }
  });

  p.add_state("vlan", [](Phv& phv, std::size_t off) -> ParseStep {
    if (!have(phv, off, VlanHeader::kSize)) {
      return {Parser::kReject, off};
    }
    phv.vlan = VlanHeader::decode(phv.packet, off);
    off += VlanHeader::kSize;
    switch (phv.vlan->ether_type) {
      case net::kEtherTypeIpv4:
        return {"ipv4", off};
      default:
        return {Parser::kAccept, off};
    }
  });

  p.add_state("ipv4", [](Phv& phv, std::size_t off) -> ParseStep {
    if (!have(phv, off, Ipv4Header::kSize)) {
      return {Parser::kReject, off};
    }
    phv.ipv4 = Ipv4Header::decode(phv.packet, off);
    off += Ipv4Header::kSize;
    switch (phv.ipv4->protocol) {
      case net::kIpProtoTcp:
        return {"tcp", off};
      case net::kIpProtoUdp:
        return {"udp", off};
      default:
        return {Parser::kAccept, off};
    }
  });

  p.add_state("tcp", [](Phv& phv, std::size_t off) -> ParseStep {
    if (!have(phv, off, TcpHeader::kSize)) {
      return {Parser::kReject, off};
    }
    phv.tcp = TcpHeader::decode(phv.packet, off);
    return {Parser::kAccept, off + TcpHeader::kSize};
  });

  p.add_state("udp", [](Phv& phv, std::size_t off) -> ParseStep {
    if (!have(phv, off, UdpHeader::kSize)) {
      return {Parser::kReject, off};
    }
    phv.udp = UdpHeader::decode(phv.packet, off);
    off += UdpHeader::kSize;
    // App protocols are recognized on either port so that replies (which
    // carry the well-known port as the *source*) parse too.
    if (phv.udp->dst_port == net::kPortKvCache ||
        phv.udp->src_port == net::kPortKvCache) {
      return {"kv", off};
    }
    if (phv.udp->dst_port == net::kPortIntReport ||
        phv.udp->src_port == net::kPortIntReport) {
      return {"int_report", off};
    }
    return {Parser::kAccept, off};
  });

  p.add_state("kv", [](Phv& phv, std::size_t off) -> ParseStep {
    if (!have(phv, off, KvHeader::kSize)) {
      return {Parser::kReject, off};
    }
    phv.kv = KvHeader::decode(phv.packet, off);
    return {Parser::kAccept, off + KvHeader::kSize};
  });

  p.add_state("int_report", [](Phv& phv, std::size_t off) -> ParseStep {
    if (!have(phv, off, IntReportHeader::kSize)) {
      return {Parser::kReject, off};
    }
    phv.int_report = IntReportHeader::decode(phv.packet, off);
    return {Parser::kAccept, off + IntReportHeader::kSize};
  });

  p.add_state("hula", [](Phv& phv, std::size_t off) -> ParseStep {
    if (!have(phv, off, HulaProbeHeader::kSize)) {
      return {Parser::kReject, off};
    }
    phv.hula = HulaProbeHeader::decode(phv.packet, off);
    return {Parser::kAccept, off + HulaProbeHeader::kSize};
  });

  p.add_state("liveness", [](Phv& phv, std::size_t off) -> ParseStep {
    if (!have(phv, off, LivenessHeader::kSize)) {
      return {Parser::kReject, off};
    }
    phv.liveness = LivenessHeader::decode(phv.packet, off);
    return {Parser::kAccept, off + LivenessHeader::kSize};
  });

  // The registered graph above is exactly the compiled parse_standard()
  // below; flag it so parse() can skip the name-dispatched loop (add_state
  // cleared the flag on every registration).
  p.standard_graph_ = true;
  return p;
}

void Parser::parse_standard(Phv& phv) {
  // Mirrors the standard() state lambdas one-for-one: same decode calls in
  // the same order, same accept/reject offsets — only the dispatch differs.
  const auto accept = [&phv](std::size_t off) { phv.payload_offset = off; };
  const auto reject = [&phv](std::size_t off) {
    phv.payload_offset = off;
    phv.parse_error = true;
  };

  std::size_t off = 0;
  if (!have(phv, off, EthernetHeader::kSize)) {
    return reject(off);
  }
  phv.eth = EthernetHeader::decode(phv.packet, off);
  off += EthernetHeader::kSize;
  std::uint16_t ether_type = phv.eth->ether_type;

  if (ether_type == net::kEtherTypeVlan) {
    if (!have(phv, off, VlanHeader::kSize)) {
      return reject(off);
    }
    phv.vlan = VlanHeader::decode(phv.packet, off);
    off += VlanHeader::kSize;
    ether_type = phv.vlan->ether_type;
    if (ether_type != net::kEtherTypeIpv4) {
      return accept(off);
    }
  }

  switch (ether_type) {
    case net::kEtherTypeIpv4:
      break;  // continue below
    case net::kEtherTypeHula:
      if (!have(phv, off, HulaProbeHeader::kSize)) {
        return reject(off);
      }
      phv.hula = HulaProbeHeader::decode(phv.packet, off);
      return accept(off + HulaProbeHeader::kSize);
    case net::kEtherTypeLiveness:
      if (!have(phv, off, LivenessHeader::kSize)) {
        return reject(off);
      }
      phv.liveness = LivenessHeader::decode(phv.packet, off);
      return accept(off + LivenessHeader::kSize);
    default:
      // Carrier frames and unknown EtherTypes both accept as-is.
      return accept(off);
  }

  if (!have(phv, off, Ipv4Header::kSize)) {
    return reject(off);
  }
  phv.ipv4 = Ipv4Header::decode(phv.packet, off);
  off += Ipv4Header::kSize;
  switch (phv.ipv4->protocol) {
    case net::kIpProtoTcp:
      if (!have(phv, off, TcpHeader::kSize)) {
        return reject(off);
      }
      phv.tcp = TcpHeader::decode(phv.packet, off);
      return accept(off + TcpHeader::kSize);
    case net::kIpProtoUdp:
      break;  // continue below
    default:
      return accept(off);
  }

  if (!have(phv, off, UdpHeader::kSize)) {
    return reject(off);
  }
  phv.udp = UdpHeader::decode(phv.packet, off);
  off += UdpHeader::kSize;
  // App protocols are recognized on either port so that replies (which
  // carry the well-known port as the *source*) parse too.
  if (phv.udp->dst_port == net::kPortKvCache ||
      phv.udp->src_port == net::kPortKvCache) {
    if (!have(phv, off, KvHeader::kSize)) {
      return reject(off);
    }
    phv.kv = KvHeader::decode(phv.packet, off);
    return accept(off + KvHeader::kSize);
  }
  if (phv.udp->dst_port == net::kPortIntReport ||
      phv.udp->src_port == net::kPortIntReport) {
    if (!have(phv, off, IntReportHeader::kSize)) {
      return reject(off);
    }
    phv.int_report = IntReportHeader::decode(phv.packet, off);
    return accept(off + IntReportHeader::kSize);
  }
  return accept(off);
}

Phv Parser::parse(net::Packet&& packet) const {
  Phv phv;
  phv.std_meta.packet_length = static_cast<std::uint32_t>(packet.size());
  phv.std_meta.ingress_port = packet.meta().ingress_port;
  phv.std_meta.ingress_timestamp = packet.meta().arrival;
  phv.packet = std::move(packet);

  if (standard_graph_) {
    parse_standard(phv);
    return phv;
  }

  std::string_view state = "start";
  std::size_t off = 0;
  for (std::size_t step = 0; step < kMaxSteps; ++step) {
    if (state == kAccept) {
      phv.payload_offset = off;
      return phv;
    }
    if (state == kReject) {
      phv.payload_offset = off;
      phv.parse_error = true;
      return phv;
    }
    // Heterogeneous lookup: the view indexes the map directly, so a
    // transition costs one hash — no temporary std::string.
    const auto it = states_.find(state);
    if (it == states_.end()) {
      phv.parse_error = true;
      return phv;
    }
    const ParseStep next = it->second(phv, off);
    state = next.next_state;
    off = next.offset;
  }
  // Exceeded the loop guard: treat as a parse error.
  phv.parse_error = true;
  return phv;
}

}  // namespace edp::pisa
