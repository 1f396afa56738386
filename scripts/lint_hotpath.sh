#!/usr/bin/env bash
# Hot-path lint for src/sim/, src/runtime/ and the scenario replay loop
# (src/workload/storm_source.*), plus a packet-handoff check over the
# packet path (src/net, src/topo, src/core, src/runtime).
#
# The event kernel's per-event path must not allocate: no heap allocation
# (new/make_unique/make_shared/malloc), no std::function (type-erased heap
# closures — use sim::InlineCallback), no std::deque/std::list (per-node
# allocation — use sim::RingQueue). PR 2 removed these from the hot path;
# this check keeps them out.
#
# Packets move from the storm source to the sink in one pooled buffer, by
# rvalue reference: a by-value `net::Packet` parameter or a
# `std::function<void(net::Packet)>` on the packet path constructs (and
# destroys) a Packet shell per hop. Take `net::Packet&&` instead.
#
# Setup-time code (constructors that run once per simulation) may carry an
# explicit `// hotpath-ok: <reason>` annotation on the offending line.
# Comment text is stripped before matching, so prose mentioning a banned
# name does not trip the check. Placement new (`::new (buf)`) is allowed —
# it is how InlineCallback avoids the heap in the first place.
set -u

cd "$(dirname "$0")/.."

# Whole modules whose per-event paths are hot, plus the workload engine's
# replay loop (scenario/replay/fuzzer setup code may allocate; the
# per-event StormSource lanes must not), plus the burst-mode kernel
# consumers in src/core: the merger's per-slot submit path and the timer
# block's per-wake expiry path both run once per event burst, and the
# optimizer's fused-dispatch plan is consulted on every TM event.
files=$(
  {
    find src/sim src/runtime -name '*.hpp' -o -name '*.cpp'
    ls src/workload/storm_source.hpp src/workload/storm_source.cpp
    ls src/core/event_merger.hpp src/core/event_merger.cpp \
       src/core/timer_wheel.hpp src/core/timer_wheel.cpp \
       src/core/dispatch_plan.hpp
  } | sort
)
packet_files=$(
  find src/net src/topo src/core src/runtime -name '*.hpp' -o -name '*.cpp' |
    sort
)
status=0

check() {
  local pattern="$1"
  local label="$2"
  local scope="${3:-$files}"
  local hits
  hits=$(for f in $scope; do
    awk -v pat="$pattern" -v f="$f" '
      /hotpath-ok/ { next }
      {
        line = $0
        sub(/\/\/.*/, "", line)
        if (line ~ pat) { printf "%s:%d: %s\n", f, NR, $0 }
      }
    ' "$f"
  done)
  if [ -n "$hits" ]; then
    echo "lint_hotpath: banned on the hot path: $label"
    echo "$hits"
    echo
    status=1
  fi
}

check 'std::function' \
  'std::function (type-erased heap closure; use sim::InlineCallback)'
check 'std::(deque|list)[[:space:]]*<' \
  'std::deque / std::list (per-node allocation; use sim::RingQueue)'
# `[^:alnum:_:]new` keeps placement `::new (` and identifiers like
# `new_value` out of scope.
check '(^|[^[:alnum:]_:])new[[:space:](]' \
  'operator new (heap allocation; pool or preallocate instead)'
check '(make_unique|make_shared|[^[:alnum:]_](m|c|re)alloc[[:space:]]*\()' \
  'heap allocation (make_unique/make_shared/malloc family)'

# A Packet parameter by value: `(net::Packet p`, `, Packet pkt)` — in
# functions and lambdas alike; references and temporaries do not match.
check '[(,][[:space:]]*(const[[:space:]]+)?(net::)?Packet[[:space:]]+[[:alnum:]_]+[[:space:]]*[,)=]' \
  'net::Packet parameter by value (take net::Packet&&)' "$packet_files"
check 'function<void\([^)]*Packet\)>' \
  'std::function<void(net::Packet)> (take net::Packet&&)' "$packet_files"

if [ "$status" -eq 0 ]; then
  all=$(printf '%s\n%s\n' "$files" "$packet_files" | sort -u | wc -l)
  echo "lint_hotpath: OK ($all files checked)"
fi
exit "$status"
