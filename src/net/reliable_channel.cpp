#include "net/reliable_channel.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "simkern/assert.hpp"

namespace optsync::net {

std::size_t ReliableChannel::in_flight() const {
  std::size_t n = 0;
  for (const auto& [k, f] : flows_) n += f.packets.size();
  return n;
}

void ReliableChannel::send(NodeId src, NodeId dst, unsigned hops,
                           std::uint32_t bytes, std::string_view tag,
                           DeliveryFn on_delivery) {
  OPTSYNC_EXPECT(on_delivery != nullptr);
  if (src == dst) {
    // Interface loopback: never crosses the fiber, cannot be lost, and the
    // fault layer never touches it. No sequencing or ack overhead.
    net_->send_hops(src, dst, hops, bytes, tag, std::move(on_delivery));
    return;
  }
  const FlowKey k = key(src, dst);
  Flow& f = flows_[k];
  f.hops = hops;
  const std::uint64_t seq = f.next_seq++;
  const auto it = f.packets.try_emplace(seq).first;
  Packet& pkt = it->second;
  pkt.hops = hops;
  pkt.bytes = bytes;
  pkt.tag = tag;
  pkt.on_delivery = std::move(on_delivery);
  pkt.first_sent = net_->scheduler().now();
  pkt.ack_by = pkt.first_sent + path_rto(pkt);
  if (it != f.packets.begin()) {
    pkt.ack_by = std::max(pkt.ack_by, std::prev(it)->second.ack_by);
  }
  stats_.data_packets += 1;
  transmit(k, seq, DeliveryKind::kNormal);
}

void ReliableChannel::transmit(FlowKey k, std::uint64_t seq,
                               DeliveryKind kind) {
  Flow& f = flows_[k];
  const auto it = f.packets.find(seq);
  OPTSYNC_ENSURE(it != f.packets.end());
  const Packet& pkt = it->second;

  // Piggybacking: if this end owes the destination a cumulative ack for the
  // reverse-direction flow, fold it into this packet's header for free. The
  // ack value is captured at transmit time — a retransmission of this packet
  // carries a fresh (possibly larger) cumulative ack. If the packet is lost
  // the piggybacked ack is lost with it; recovery is the sender's normal
  // retransmit, whose duplicate triggers an immediate re-ack. The ack rides
  // only if this packet lands no later than the standalone ack would — a
  // large frame must not hold it past the sender's path-sized timeout.
  if (cfg_.ack_delay_ns > 0) {
    const auto rit = flows_.find(reverse(k));
    const LinkModel& link = net_->link();
    if (rit != flows_.end() && rit->second.ack_pending &&
        net_->scheduler().now() + link.delay(pkt.hops, pkt.bytes) <=
            rit->second.ack_due +
                link.delay(rit->second.hops, cfg_.ack_bytes)) {
      Flow& rf = rit->second;
      rf.ack_pending = false;  // the armed timer sees this and stays silent
      const std::uint64_t next_expected = rf.next_release;
      const FlowKey rk = reverse(k);
      stats_.acks_piggybacked += 1;
      net_->send_hops(key_src(k), key_dst(k), pkt.hops, pkt.bytes, pkt.tag,
                      [this, k, seq, rk, next_expected] {
                        on_ack(rk, next_expected);
                        on_data(k, seq);
                      },
                      kind);
      arm_timer(k, seq);
      return;
    }
  }

  net_->send_hops(key_src(k), key_dst(k), pkt.hops, pkt.bytes, pkt.tag,
                  [this, k, seq] { on_data(k, seq); }, kind);
  arm_timer(k, seq);
}

sim::Duration ReliableChannel::path_rto(const Packet& pkt) const {
  const LinkModel& link = net_->link();
  return 2 * (link.delay(pkt.hops, pkt.bytes) +
              link.delay(pkt.hops, cfg_.ack_bytes)) +
         cfg_.ack_delay_ns;
}

void ReliableChannel::arm_timer(FlowKey k, std::uint64_t seq) {
  Flow& f = flows_[k];
  Packet& pkt = f.packets.at(seq);
  const double scaled = static_cast<double>(path_rto(pkt)) *
                        std::pow(cfg_.backoff, pkt.attempts);
  const auto rto = std::min<sim::Duration>(
      cfg_.max_rto_ns, static_cast<sim::Duration>(scaled));
  const sim::Time due = std::max(net_->scheduler().now() + rto, pkt.ack_by);
  pkt.timer =
      net_->scheduler().at(due, [this, k, seq] { on_timeout(k, seq); });
}

void ReliableChannel::on_timeout(FlowKey k, std::uint64_t seq) {
  const auto fit = flows_.find(k);
  if (fit == flows_.end()) return;
  const auto it = fit->second.packets.find(seq);
  if (it == fit->second.packets.end()) return;  // acked; timer raced the ack
  Packet& pkt = it->second;
  pkt.timer = 0;
  if (pkt.attempts >= cfg_.max_retransmits) {
    // Cap hit: abandon. The packet stays in the map (visible through
    // in_flight()) so a stuck simulation is diagnosable, not silent. A later
    // ack naming this seq as next-expected revives it (see on_ack): the
    // receiver is demonstrably alive and still waiting on the gap.
    stats_.expirations += 1;
    pkt.expired = true;
    const sim::Time now = net_->scheduler().now();
    net_->emit_trace(MessageTrace{pkt.first_sent, now, key_src(k), key_dst(k),
                                  pkt.bytes, pkt.tag, DeliveryKind::kExpired});
    return;
  }
  pkt.attempts += 1;
  stats_.retransmits += 1;
  transmit(k, seq, DeliveryKind::kRetransmit);
}

void ReliableChannel::on_data(FlowKey k, std::uint64_t seq) {
  Flow& f = flows_[k];
  const auto it = f.packets.find(seq);
  const bool already_released =
      seq < f.next_release || it == f.packets.end() ||
      (it != f.packets.end() && it->second.received);
  if (already_released) {
    // A retransmission raced the original (or an injected duplicate):
    // suppress, but re-ack so the sender stops retransmitting.
    stats_.dup_suppressed += 1;
    const sim::Time now = net_->scheduler().now();
    MessageTrace t{now, now, key_src(k), key_dst(k), 0, "rel-dup",
                   DeliveryKind::kDupSuppressed};
    if (it != f.packets.end()) {
      t.bytes = it->second.bytes;
      t.tag = it->second.tag;
      t.sent_at = it->second.first_sent;
    }
    net_->emit_trace(t);
    send_ack(k);
    return;
  }

  it->second.received = true;
  if (seq != f.next_release) {
    // A gap precedes this packet (its predecessor was dropped or delayed
    // past it): hold until the retransmission fills the gap.
    stats_.out_of_order += 1;
    send_ack(k);
    return;
  }

  // Release the contiguous prefix in order, exactly once. Callbacks may
  // reenter send() on this channel (sequenced updates fan back out through
  // the root), so re-find the packet each iteration.
  while (true) {
    const auto rit = f.packets.find(f.next_release);
    if (rit == f.packets.end() || !rit->second.received ||
        !rit->second.on_delivery) {
      break;
    }
    auto cb = std::move(rit->second.on_delivery);
    rit->second.on_delivery = nullptr;
    const sim::Duration delay =
        net_->scheduler().now() - rit->second.first_sent;
    stats_.max_delivery_delay_ns =
        std::max(stats_.max_delivery_delay_ns, delay);
    f.next_release += 1;
    cb();
  }
  note_ack_owed(k);
}

void ReliableChannel::note_ack_owed(FlowKey k) {
  if (cfg_.ack_delay_ns == 0) {
    send_ack(k);
    return;
  }
  // Delayed ack: give a reverse-direction packet ack_delay_ns to depart and
  // carry the cumulative ack for free. The timer guarantees the sender is
  // never starved of acks on a one-way flow — a standalone ack goes out at
  // the deadline if nothing piggybacked it first.
  Flow& f = flows_[k];
  f.ack_pending = true;
  if (f.ack_timer == 0) {
    f.ack_due = net_->scheduler().now() + cfg_.ack_delay_ns;
    f.ack_timer = net_->scheduler().at(f.ack_due, [this, k] {
      Flow& fl = flows_[k];
      fl.ack_timer = 0;
      if (fl.ack_pending) send_ack(k);
    });
  }
}

void ReliableChannel::send_ack(FlowKey k) {
  Flow& f = flows_[k];
  f.ack_pending = false;
  if (f.ack_timer != 0) {
    net_->scheduler().cancel(f.ack_timer);
    f.ack_timer = 0;
  }
  // The ack carries next_release verbatim — the receiver's next expected
  // sequence. With 0-based sequences this encodes "nothing released yet" as
  // a plain 0; the old `next_release - 1` form wrapped to UINT64_MAX in that
  // state and erased every in-flight packet, including the dropped one.
  const std::uint64_t next_expected = f.next_release;
  stats_.acks_sent += 1;
  // Acks travel the reverse path and are just as attackable as data: a
  // lost ack means a retransmission that the receiver will dedup.
  net_->send_hops(key_dst(k), key_src(k), f.hops, cfg_.ack_bytes, "rel-ack",
                  [this, k, next_expected] { on_ack(k, next_expected); });
}

void ReliableChannel::on_ack(FlowKey k, std::uint64_t next_expected) {
  const auto fit = flows_.find(k);
  if (fit == flows_.end()) return;
  Flow& f = fit->second;
  while (!f.packets.empty() && f.packets.begin()->first < next_expected) {
    Packet& pkt = f.packets.begin()->second;
    if (pkt.expired) {
      // Abandoned at the cap, yet the cumulative ack proves a copy got
      // through (a delayed duplicate, or a retransmission whose ack was
      // lost). Settle it without asserting — the released-state invariant
      // below only holds for packets the sender was still tracking.
      stats_.expired_acked += 1;
    } else {
      OPTSYNC_ENSURE(pkt.received && !pkt.on_delivery);
    }
    if (pkt.timer != 0) net_->scheduler().cancel(pkt.timer);
    f.packets.erase(f.packets.begin());
  }
  // Revival: the receiver names the head-of-line packet it is still waiting
  // for. If the sender had abandoned exactly that packet, the flow is wedged
  // — nothing will ever retransmit it and every later packet stalls in the
  // receiver's out-of-order buffer. The ack is proof of a live path, so put
  // the packet back on the state machine with a fresh backoff budget.
  const auto head = f.packets.find(next_expected);
  if (head != f.packets.end() && head->second.expired &&
      !head->second.received) {
    Packet& pkt = head->second;
    pkt.expired = false;
    pkt.attempts = 0;
    stats_.revivals += 1;
    stats_.retransmits += 1;
    transmit(k, next_expected, DeliveryKind::kRevived);
  }
}

}  // namespace optsync::net
