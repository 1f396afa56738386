#include "analysis/driver.hpp"

#include <algorithm>
#include <deque>
#include <utility>

#include "core/event_switch.hpp"
#include "net/packet_builder.hpp"
#include "pisa/parser.hpp"

namespace edp::analysis {
namespace {

// ---- stimuli ------------------------------------------------------------------

struct Stimulus {
  std::string name;
  net::Packet packet;
};

net::Packet stamp(net::Packet p, std::uint16_t port) {
  p.meta().ingress_port = port;
  p.meta().arrival = sim::Time::millis(1);
  return p;
}

/// One packet per protocol branch of the standard parser, so every parse
/// path a program can react to is exercised.
std::vector<Stimulus> make_stimuli() {
  const net::MacAddress src_mac = net::MacAddress::from_u64(0x0a0000000001);
  const net::MacAddress dst_mac = net::MacAddress::from_u64(0x0a0000000002);
  const net::Ipv4Address src_ip(10, 0, 0, 1);
  const net::Ipv4Address dst_ip(10, 0, 1, 2);

  std::vector<Stimulus> out;
  out.push_back({"tcp", stamp(net::PacketBuilder()
                                  .ethernet(src_mac, dst_mac)
                                  .ipv4(src_ip, dst_ip, net::kIpProtoTcp)
                                  .tcp(31000, 80)
                                  .payload(400)
                                  .build(),
                              /*port=*/0)});
  out.push_back({"udp", stamp(net::PacketBuilder()
                                  .ethernet(src_mac, dst_mac)
                                  .ipv4(src_ip, dst_ip, net::kIpProtoUdp)
                                  .udp(32000, 2000)
                                  .payload(200)
                                  .build(),
                              /*port=*/1)});

  net::KvHeader get;
  get.op = net::KvHeader::kGet;
  get.seq = 1;
  get.key = 42;
  out.push_back({"kv-get", stamp(net::PacketBuilder()
                                     .ethernet(src_mac, dst_mac)
                                     .ipv4(src_ip, dst_ip, net::kIpProtoUdp)
                                     .udp(33000, net::kPortKvCache)
                                     .kv(get)
                                     .build(),
                                 /*port=*/1)});

  net::KvHeader set;
  set.op = net::KvHeader::kSet;
  set.seq = 2;
  set.key = 42;
  set.value = 7;
  out.push_back({"kv-set", stamp(net::PacketBuilder()
                                     .ethernet(src_mac, dst_mac)
                                     .ipv4(src_ip, dst_ip, net::kIpProtoUdp)
                                     .udp(33001, net::kPortKvCache)
                                     .kv(set)
                                     .build(),
                                 /*port=*/1)});

  net::HulaProbeHeader probe;
  probe.tor_id = 1;
  probe.path_util_permille = 300;
  out.push_back(
      {"hula-probe", stamp(net::PacketBuilder()
                               .ethernet(src_mac, dst_mac, net::kEtherTypeHula)
                               .hula_probe(probe)
                               .pad_to(60)
                               .build(),
                           /*port=*/2)});

  net::LivenessHeader echo;
  echo.kind = net::LivenessHeader::kRequest;
  echo.seq = 1;
  echo.sender_id = 7;
  out.push_back({"liveness-request",
                 stamp(net::PacketBuilder()
                           .ethernet(src_mac, dst_mac, net::kEtherTypeLiveness)
                           .liveness(echo)
                           .pad_to(60)
                           .build(),
                       /*port=*/2)});

  net::IntReportHeader report;
  report.switch_id = 9;
  report.queue_id = 1;
  report.queue_depth_bytes = 48000;
  report.active_flows = 12;
  out.push_back({"int-report", stamp(net::PacketBuilder()
                                         .ethernet(src_mac, dst_mac)
                                         .ipv4(src_ip, dst_ip, net::kIpProtoUdp)
                                         .udp(34000, net::kPortIntReport)
                                         .int_report(report)
                                         .build(),
                                     /*port=*/3)});
  return out;
}

bool meta_words_changed(const std::array<std::uint64_t, 16>& before,
                        const std::array<std::uint64_t, 16>& after) {
  for (std::size_t i = 0; i < 8; ++i) {
    if (before[i] != after[i]) {
      return true;
    }
  }
  return false;
}

tm_::EventMetaWords enq_meta_of(const pisa::Phv& phv) {
  tm_::EventMetaWords m{};
  for (std::size_t i = 0; i < 4; ++i) {
    m[i] = phv.user[core::kEnqMetaBase + i];
  }
  return m;
}

tm_::EventMetaWords deq_meta_of(const pisa::Phv& phv) {
  tm_::EventMetaWords m{};
  for (std::size_t i = 0; i < 4; ++i) {
    m[i] = phv.user[core::kDeqMetaBase + i];
  }
  return m;
}

/// Drive one packet handler and record its postconditions.
PacketDrive drive_packet(core::EventProgram& program, RecordingContext& ctx,
                         Handler handler, const std::string& stimulus,
                         pisa::Phv& phv) {
  ctx.begin_drive(handler);
  const auto user_before = phv.user;
  switch (handler) {
    case Handler::kIngress:
      program.on_ingress(phv, ctx);
      break;
    case Handler::kEgress:
      program.on_egress(phv, ctx);
      break;
    case Handler::kRecirculate:
      program.on_recirculate(phv, ctx);
      break;
    case Handler::kGenerated:
      program.on_generated(phv, ctx);
      break;
    default:
      break;
  }
  PacketDrive d;
  d.handler = handler;
  d.stimulus = stimulus;
  d.drive = ctx.drive_index();
  d.parse_error = phv.parse_error;
  d.drop = phv.std_meta.drop;
  d.recirculate = phv.std_meta.recirculate;
  d.recirc_clone = phv.std_meta.recirc_clone;
  d.forwarded = handler != Handler::kEgress && !d.drop && !d.recirculate;
  d.meta_written = meta_words_changed(user_before, phv.user);
  d.enq_meta = enq_meta_of(phv);
  d.deq_meta = deq_meta_of(phv);
  d.pkt_len = phv.length();
  return d;
}

tm_::EnqueueRecord make_enqueue(const PacketDrive& d, sim::Time now,
                                bool deep) {
  tm_::EnqueueRecord r;
  r.port = 1;
  r.qid = 0;
  r.pkt_len = d.pkt_len;
  r.enq_meta = d.enq_meta;
  r.depth_bytes = deep ? 256 * 1024 : 3000;
  r.depth_packets = deep ? 170 : 2;
  r.when = now;
  return r;
}

/// Installs the default-handler trace for the current scope (see
/// core::exchange_default_handler_trace), restoring the previous mask.
class DefaultTraceInstallation {
 public:
  explicit DefaultTraceInstallation(std::uint32_t* mask)
      : previous_(core::exchange_default_handler_trace(mask)) {}
  ~DefaultTraceInstallation() {
    core::exchange_default_handler_trace(previous_);
  }

  DefaultTraceInstallation(const DefaultTraceInstallation&) = delete;
  DefaultTraceInstallation& operator=(const DefaultTraceInstallation&) =
      delete;

 private:
  std::uint32_t* previous_;
};

tm_::DequeueRecord make_dequeue(const PacketDrive& d, sim::Time now,
                                bool deep) {
  tm_::DequeueRecord r;
  r.port = 1;
  r.qid = 0;
  r.pkt_len = d.pkt_len;
  r.deq_meta = d.deq_meta;
  r.sojourn = deep ? sim::Time::micros(500) : sim::Time::micros(10);
  r.depth_bytes = deep ? 254 * 1024 : 1500;
  r.depth_packets = deep ? 169 : 1;
  r.when = now;
  return r;
}

}  // namespace

// ---- trace-mode driver --------------------------------------------------------

DriveLog drive_all(core::EventProgram& program, RecordingContext& ctx,
                   const DriveOptions& options) {
  const pisa::Parser parser = pisa::Parser::standard();
  const std::vector<Stimulus> stimuli = make_stimuli();
  DriveLog log;

  // Record which handlers run the base-class default body, and which were
  // driven at all — together they prove which events a program ignores.
  DefaultTraceInstallation trace(&log.default_mask);
  const auto mark = [&log](Handler h) {
    log.driven_mask |= 1u << static_cast<unsigned>(h);
  };

  mark(Handler::kAttach);
  ctx.begin_drive(Handler::kAttach);
  program.on_attach(ctx);

  // Packet handlers. Each ingress stimulus repeats back-to-back so
  // counter-guarded branches (every-Nth-packet probes, warm-up thresholds)
  // execute and their register accesses reach the IR.
  const std::size_t repeats = std::max<std::size_t>(1, options.ingress_repeats);
  for (const Stimulus& s : stimuli) {
    for (std::size_t rep = 0; rep < repeats; ++rep) {
      pisa::Phv phv = parser.parse(net::Packet(s.packet));
      if (phv.parse_error) {
        break;
      }
      log.packet_drives.push_back(
          drive_packet(program, ctx, Handler::kIngress, s.name, phv));
    }
  }
  for (const Stimulus& s : stimuli) {
    pisa::Phv phv = parser.parse(net::Packet(s.packet));
    if (phv.parse_error) {
      continue;
    }
    phv.std_meta.egress_port = 1;
    phv.std_meta.enqueue_timestamp = ctx.now();
    log.packet_drives.push_back(
        drive_packet(program, ctx, Handler::kEgress, s.name, phv));
  }
  for (const Stimulus& s : stimuli) {
    pisa::Phv phv = parser.parse(net::Packet(s.packet));
    if (phv.parse_error) {
      continue;
    }
    log.packet_drives.push_back(
        drive_packet(program, ctx, Handler::kRecirculate, s.name, phv));
  }

  // on_generated fires only for packets the program itself originated:
  // generator templates and injected packets recorded so far.
  {
    std::vector<std::pair<std::string, net::Packet>> generated;
    for (const RecordingContext::Call& c : ctx.calls()) {
      if (!c.accepted || c.packet.size() == 0) {
        continue;
      }
      if (c.kind == ActionKind::kAddGenerator) {
        generated.emplace_back("generator-template", c.packet);
      } else if (c.kind == ActionKind::kInjectPacket) {
        generated.emplace_back("injected", c.packet);
      }
    }
    for (auto& [name, pkt] : generated) {
      pisa::Phv phv = parser.parse(stamp(std::move(pkt), core::kPortGenerated));
      if (phv.parse_error) {
        continue;
      }
      log.packet_drives.push_back(
          drive_packet(program, ctx, Handler::kGenerated, name, phv));
    }
  }

  // Buffer events replay the meta the program's own ingress attached, at a
  // shallow and a deep queue depth (to reach threshold branches). The deep
  // replay also answers queue_bytes() queries with a deep queue. One
  // replay per stimulus: the repeats above share the same meta.
  const std::size_t shallow_queue_bytes = ctx.config().queue_bytes;
  const std::vector<PacketDrive> ingress_drives = log.packet_drives;
  std::string replayed_stimulus;
  for (const PacketDrive& d : ingress_drives) {
    if (d.handler != Handler::kIngress || !d.forwarded ||
        d.stimulus == replayed_stimulus) {
      continue;
    }
    replayed_stimulus = d.stimulus;
    for (const bool deep : {false, true}) {
      ctx.set_queue_bytes(deep ? options.deep_queue_bytes
                               : shallow_queue_bytes);
      mark(Handler::kEnqueue);
      ctx.begin_drive(Handler::kEnqueue);
      program.on_enqueue(make_enqueue(d, ctx.now(), deep), ctx);
      mark(Handler::kDequeue);
      ctx.begin_drive(Handler::kDequeue);
      program.on_dequeue(make_dequeue(d, ctx.now(), deep), ctx);
    }
    ctx.set_queue_bytes(shallow_queue_bytes);
    {
      mark(Handler::kOverflow);
      ctx.begin_drive(Handler::kOverflow);
      tm_::DropRecord drop;
      drop.port = 1;
      drop.pkt_len = d.pkt_len;
      drop.enq_meta = d.enq_meta;
      drop.reason = tm_::DropReason::kQueueLimit;
      drop.when = ctx.now();
      program.on_overflow(drop, ctx);
    }
    {
      mark(Handler::kTransmit);
      ctx.begin_drive(Handler::kTransmit);
      core::TransmitRecord tx;
      tx.port = 1;
      tx.pkt_len = d.pkt_len;
      tx.when = ctx.now();
      program.on_transmit(tx, ctx);
    }
  }
  {
    mark(Handler::kUnderflow);
    ctx.begin_drive(Handler::kUnderflow);
    tm_::UnderflowRecord uf;
    uf.port = 1;
    uf.when = ctx.now();
    program.on_underflow(uf, ctx);
  }

  // Timer expirations: exactly the timers the program armed.
  {
    const std::vector<RecordingContext::Call> calls = ctx.calls();
    for (const RecordingContext::Call& c : calls) {
      if (c.kind != ActionKind::kSetTimer || !c.accepted) {
        continue;
      }
      mark(Handler::kTimer);
      ctx.begin_drive(Handler::kTimer);
      core::TimerEventData t;
      t.timer_id = static_cast<std::uint32_t>(c.id);
      t.cookie = c.cookie;
      t.scheduled_for = ctx.now();
      t.fired_at = ctx.now();
      program.on_timer(t, ctx);
    }
  }

  // Control / link / user events.
  {
    mark(Handler::kControl);
    ctx.begin_drive(Handler::kControl);
    program.on_control(core::ControlEventData{}, ctx);
  }
  for (const bool up : {false, true}) {
    mark(Handler::kLinkStatus);
    ctx.begin_drive(Handler::kLinkStatus);
    core::LinkStatusEventData ls;
    ls.port = 1;
    ls.up = up;
    ls.when = ctx.now();
    program.on_link_status(ls, ctx);
  }
  {
    const std::vector<RecordingContext::Call> calls = ctx.calls();
    for (const RecordingContext::Call& c : calls) {
      if (c.kind != ActionKind::kRaiseUserEvent || !c.accepted) {
        continue;
      }
      mark(Handler::kUser);
      ctx.begin_drive(Handler::kUser);
      program.on_user(c.user, ctx);
    }
  }

  for (const PacketDrive& d : log.packet_drives) {
    mark(d.handler);
  }
  return log;
}

// ---- chain-mode driver --------------------------------------------------------

namespace {

/// One pending handler activation in a chain run.
struct Activation {
  Handler handler = Handler::kIngress;
  pisa::Phv phv;                // packet handlers
  tm_::EnqueueRecord enq;       // kEnqueue
  tm_::DequeueRecord deq;       // kDequeue
  core::TimerEventData timer;   // kTimer
  core::UserEventData user;     // kUser
};

/// Drive one activation; append the activations its actions spawn
/// (following only edges the architecture does not rate-bound).
void step(core::EventProgram& program, RecordingContext& ctx,
          const pisa::Parser& parser, Activation a,
          std::deque<Activation>& pending) {
  const std::size_t calls_before = ctx.calls().size();

  PacketDrive d;
  switch (a.handler) {
    case Handler::kIngress:
    case Handler::kEgress:
    case Handler::kRecirculate:
    case Handler::kGenerated:
      d = drive_packet(program, ctx, a.handler, "chain", a.phv);
      break;
    case Handler::kEnqueue:
      ctx.begin_drive(Handler::kEnqueue);
      program.on_enqueue(a.enq, ctx);
      break;
    case Handler::kDequeue:
      ctx.begin_drive(Handler::kDequeue);
      program.on_dequeue(a.deq, ctx);
      break;
    case Handler::kTimer:
      ctx.begin_drive(Handler::kTimer);
      program.on_timer(a.timer, ctx);
      break;
    case Handler::kUser:
      ctx.begin_drive(Handler::kUser);
      program.on_user(a.user, ctx);
      break;
    default:
      return;
  }

  // Packet steering consequences.
  if (is_packet_handler(a.handler)) {
    if (d.recirculate || d.recirc_clone) {
      Activation next;
      next.handler = Handler::kRecirculate;
      next.phv = a.phv;
      next.phv.std_meta.recirculate = false;
      next.phv.std_meta.recirc_clone = false;
      next.phv.std_meta.drop = false;
      pending.push_back(std::move(next));
    }
    if (d.forwarded) {
      // The packet proceeds to the TM: its buffer events fire, and the
      // egress pipeline runs at service time.
      Activation enq;
      enq.handler = Handler::kEnqueue;
      enq.enq = make_enqueue(d, ctx.now(), /*deep=*/false);
      pending.push_back(std::move(enq));
      Activation deq;
      deq.handler = Handler::kDequeue;
      deq.deq = make_dequeue(d, ctx.now(), /*deep=*/false);
      pending.push_back(std::move(deq));
      if (a.handler != Handler::kEgress) {
        Activation eg;
        eg.handler = Handler::kEgress;
        eg.phv = a.phv;
        eg.phv.std_meta.egress_port = 1;
        pending.push_back(std::move(eg));
      }
    }
  }

  // Facility-call consequences.
  const std::vector<RecordingContext::Call>& calls = ctx.calls();
  for (std::size_t i = calls_before; i < calls.size(); ++i) {
    const RecordingContext::Call& c = calls[i];
    if (!c.accepted) {
      continue;
    }
    switch (c.kind) {
      case ActionKind::kInjectPacket: {
        pisa::Phv phv =
            parser.parse(stamp(c.packet, core::kPortGenerated));
        if (!phv.parse_error) {
          Activation next;
          next.handler = Handler::kGenerated;
          next.phv = std::move(phv);
          pending.push_back(std::move(next));
        }
        break;
      }
      case ActionKind::kSendPacket: {
        // Direct enqueue: buffer events fire with empty meta (send_packet
        // bypasses the ingress pipeline that would have attached it).
        Activation enq;
        enq.handler = Handler::kEnqueue;
        enq.enq.port = static_cast<std::uint16_t>(c.id >> 8);
        enq.enq.pkt_len = static_cast<std::uint32_t>(c.packet.size());
        enq.enq.when = ctx.now();
        pending.push_back(std::move(enq));
        Activation deq;
        deq.handler = Handler::kDequeue;
        deq.deq.port = static_cast<std::uint16_t>(c.id >> 8);
        deq.deq.pkt_len = static_cast<std::uint32_t>(c.packet.size());
        deq.deq.when = ctx.now();
        pending.push_back(std::move(deq));
        pisa::Phv phv = parser.parse(stamp(c.packet, core::kPortCpu));
        if (!phv.parse_error) {
          Activation eg;
          eg.handler = Handler::kEgress;
          eg.phv = std::move(phv);
          eg.phv.std_meta.egress_port = static_cast<std::uint16_t>(c.id >> 8);
          pending.push_back(std::move(eg));
        }
        break;
      }
      case ActionKind::kRaiseUserEvent: {
        Activation next;
        next.handler = Handler::kUser;
        next.user = c.user;
        pending.push_back(std::move(next));
        break;
      }
      case ActionKind::kTriggerGenerator: {
        // Emit the freshest template recorded for this generator id.
        for (std::size_t j = calls.size(); j-- > 0;) {
          const RecordingContext::Call& g = calls[j];
          if (g.kind == ActionKind::kAddGenerator && g.id == c.id &&
              g.packet.size() > 0) {
            pisa::Phv phv =
                parser.parse(stamp(g.packet, core::kPortGenerated));
            if (!phv.parse_error) {
              Activation next;
              next.handler = Handler::kGenerated;
              next.phv = std::move(phv);
              pending.push_back(std::move(next));
            }
            break;
          }
        }
        break;
      }
      case ActionKind::kSetTimer: {
        // Zero-period timers fire immediately and forever; anything with a
        // real period is rate-bounded and cannot amplify.
        if (!c.rate_bounded) {
          Activation next;
          next.handler = Handler::kTimer;
          next.timer.timer_id = static_cast<std::uint32_t>(c.id);
          next.timer.cookie = c.cookie;
          next.timer.scheduled_for = ctx.now();
          next.timer.fired_at = ctx.now();
          pending.push_back(std::move(next));
        }
        break;
      }
      case ActionKind::kAddGenerator: {
        if (!c.rate_bounded && c.packet.size() > 0) {
          pisa::Phv phv =
              parser.parse(stamp(c.packet, core::kPortGenerated));
          if (!phv.parse_error) {
            Activation next;
            next.handler = Handler::kGenerated;
            next.phv = std::move(phv);
            pending.push_back(std::move(next));
          }
        }
        break;
      }
      default:
        break;
    }
  }
}

}  // namespace

std::vector<ChainRun> simulate_chains(core::EventProgram& program,
                                      RecordingContext& ctx,
                                      std::size_t max_steps_per_seed) {
  const pisa::Parser parser = pisa::Parser::standard();

  ctx.begin_drive(Handler::kAttach);
  program.on_attach(ctx);

  std::vector<ChainRun> runs;
  for (const Stimulus& s : make_stimuli()) {
    pisa::Phv phv = parser.parse(net::Packet(s.packet));
    if (phv.parse_error) {
      continue;
    }
    ChainRun run;
    run.seed = s.name;

    std::deque<Activation> pending;
    Activation seed;
    seed.handler = Handler::kIngress;
    seed.phv = std::move(phv);
    pending.push_back(std::move(seed));

    while (!pending.empty()) {
      if (run.steps >= max_steps_per_seed) {
        run.limited = true;
        break;
      }
      Activation a = std::move(pending.front());
      pending.pop_front();
      ++run.steps;
      step(program, ctx, parser, std::move(a), pending);
    }
    runs.push_back(std::move(run));
  }
  return runs;
}

}  // namespace edp::analysis
