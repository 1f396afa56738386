// edp::pisa — deparser: serialize a PHV back to a wire packet.
#pragma once

#include "pisa/phv.hpp"

namespace edp::pisa {

/// Re-emits the valid headers of `phv` in canonical order (Ethernet, VLAN,
/// IPv4, TCP/UDP, app headers), followed by the unparsed payload bytes of
/// the original packet. IPv4 total_length/checksum and the UDP length are
/// recomputed so a program that rewrites fields always emits a consistent
/// packet.
///
/// The packet's intrinsic metadata (arrival, trace id) is carried over.
class Deparser {
 public:
  net::Packet deparse(const Phv& phv) const;

  /// Same emit, into a caller-provided packet (cleared first; its buffer
  /// is kept when large enough). Byte output identical to deparse().
  void deparse_into(const Phv& phv, net::Packet& out) const;

  /// Same bytes as deparse(phv), consuming the PHV. When the canonical
  /// headers exactly fill the parsed header region — every field rewrite
  /// (ECN, TTL, DSCP, ports, ...) on an unchanged header set — the headers
  /// are rewritten inside phv.packet's own buffer and that buffer is
  /// returned: the payload is never copied, as in a PISA switch, where it
  /// stays in the packet buffer. Any other layout (a header added or
  /// removed, a trimmed payload) falls back to deparse().
  net::Packet deparse_in_place(Phv&& phv) const;

  /// True when deparse_in_place() rewrites in place instead of falling
  /// back.
  static bool rewrites_in_place(const Phv& phv);
};

}  // namespace edp::pisa
