// edp::pisa — programmable parser.
//
// A parser is a state machine, exactly as in P4: each state extracts a
// header from the packet at the current offset and selects the next state.
// States are registered by name; `Parser::standard()` builds the parse
// graph for this repository's protocol suite, and programs may add or
// replace states to parse custom formats.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "pisa/phv.hpp"

namespace edp::pisa {

/// Result of one parser state: where to go next and the new byte offset.
/// `next_state` is a view — state names are string literals (or the keys of
/// registered states, which outlive any parse), so transitions carry no
/// string construction on the per-packet hot path.
struct ParseStep {
  std::string_view next_state;  ///< "accept" / "reject" end parsing
  std::size_t offset = 0;
};

/// One parser state: examine `phv.packet` at `offset`, extract into `phv`,
/// return the transition.
using ParseState =
    std::function<ParseStep(Phv& phv, std::size_t offset)>;

/// P4-style programmable parser.
class Parser {
 public:
  static constexpr std::string_view kAccept = "accept";
  static constexpr std::string_view kReject = "reject";

  /// Empty parser; the caller supplies every state.
  Parser() = default;

  /// The standard parse graph:
  ///   start -> ethernet -> {vlan ->} {ipv4 -> {tcp|udp -> {kv|int}}}
  ///                        | hula | liveness | carrier(accept)
  static Parser standard();

  /// Register (or replace) a state. Adding or replacing any state drops the
  /// parser back to the generic (name-dispatched) state machine; the
  /// compiled fast path below only covers the untouched standard graph.
  void add_state(const std::string& name, ParseState state);

  /// Run the state machine from "start". On reject/truncation the PHV is
  /// returned with `parse_error` set. Also fills packet_length,
  /// ingress_port and ingress_timestamp from the packet metadata.
  Phv parse(net::Packet&& packet) const;

  /// Loop guard: maximum state transitions per packet.
  static constexpr std::size_t kMaxSteps = 32;

 private:
  /// Direct-coded equivalent of the standard() graph — no per-transition
  /// hash lookup or std::function dispatch. parse() takes this path while
  /// the graph is exactly the one standard() registered (kept equivalent by
  /// the ParserFastPathMatchesGeneric differential test).
  static void parse_standard(Phv& phv);

  /// Transparent hashing lets parse() look states up by string_view —
  /// no std::string materialized per transition.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  std::unordered_map<std::string, ParseState, NameHash, std::equal_to<>>
      states_;
  bool standard_graph_ = false;  ///< true ⟺ parse() may use parse_standard
};

}  // namespace edp::pisa
