#include "topo/link.hpp"

#include <utility>

namespace edp::topo {

void Link::set_up(bool up) {
  if (up_ == up) {
    return;
  }
  up_ = up;
  if (a_.status) {
    a_.status(up);
  }
  if (b_.status) {
    b_.status(up);
  }
}

void Link::send(net::Packet&& p, bool to_b) {
  if (!up_) {
    ++dropped_down_;
    return;
  }
  // Copy the target closure by reference-to-member: the End outlives the
  // scheduled delivery because the Link owns it for the simulation's life.
  End& dst = to_b ? b_ : a_;
  sched_.after(config_.delay, [this, &dst, pkt = std::move(p)]() mutable {
    ++delivered_;
    if (dst.deliver) {
      dst.deliver(std::move(pkt));
    }
  });
}

}  // namespace edp::topo
