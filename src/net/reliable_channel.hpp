// Reliable, FIFO, exactly-once delivery on top of the lossy network.
//
// The paper assumes "reliable, root-sequenced" tree delivery handled by
// hardware retransmission (§1.2); the seed inherited that as an axiom of
// net::Network. ReliableChannel makes the mechanism an explicit, testable
// software layer so fault injection (src/faults/) has something real to
// attack: per-(src, dst) sequence numbers, cumulative acks, timeout +
// retransmit with exponential backoff and a cap, duplicate suppression,
// and in-order release to the caller's delivery callback.
//
// Timeouts are sized per packet from its own path, not from a constant:
// the first is 2 x (data flight + ack flight) + ack_delay_ns, each flight
// priced by the network's LinkModel for the packet's hops and bytes. A lost
// packet is resent after about one round trip, as link-level hardware
// retransmission would (§1.2), and a large frame waits longer than a small
// control packet. On a loss-free fabric the timer never fires: the network
// is latency-only and an ack leaves at release (or within ack_delay_ns), so
// it lands within half the timeout. Two rules keep that bound. A packet's
// first deadline is never before its predecessor's: acks are cumulative, so
// a packet that overtook a larger predecessor is acked only with it. And a
// delayed ack rides only a carrier that lands no later than the standalone
// ack would.
//
// Layering: DsmSystem routes share_out / multicast traffic through a
// ReliableChannel when faults are configured (or when explicitly enabled);
// GWC total order then survives message loss because each root->member
// stream is released in send order, exactly once. Loopback (src == dst)
// bypasses the protocol — an interface's self-delivery cannot be lost.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string_view>

#include "net/network.hpp"
#include "simkern/time.hpp"

namespace optsync::net {

struct ReliableConfig {
  /// Used by DsmSystem to decide whether to route through the channel.
  /// Fault injection force-enables it (lossy fiber without retransmission
  /// cannot uphold GWC).
  bool enabled = false;

  /// Timeout multiplier per retransmission of the same packet. The walk
  /// starts from the packet's path-sized first timeout (see the header
  /// comment), not from a configured constant.
  double backoff = 2.0;

  /// Ceiling on the backed-off timeout.
  sim::Duration max_rto_ns = 2'000'000;

  /// Retransmit cap: after this many retransmissions the packet is
  /// abandoned and counted in stats().expirations. A partition longer than
  /// the whole backoff budget (~15 ms for a 1-hop control packet on the
  /// paper's links) is a node failure, which is beyond this layer's
  /// contract.
  unsigned max_retransmits = 16;

  /// Wire size of an ack (header + cumulative sequence number). Also sizes
  /// the ack flight in every packet's first timeout.
  std::uint32_t ack_bytes = 12;

  /// Delayed-ack window. 0 (default) acks every release immediately — the
  /// seed's exact behaviour. When > 0, an ack owed after an in-order release
  /// is held for this long; if any reverse-direction packet departs first,
  /// the cumulative ack rides in its header for free (acks_piggybacked) and
  /// no standalone ack is sent. Loss-recovery acks (dup suppression,
  /// out-of-order buffering) are never delayed — they are what stops a
  /// retransmit storm. The window is added to every first timeout: a held
  /// ack is still on time.
  sim::Duration ack_delay_ns = 0;
};

struct ReliableStats {
  std::uint64_t data_packets = 0;    ///< distinct payloads accepted for send
  std::uint64_t retransmits = 0;     ///< timer-driven re-sends
  std::uint64_t dup_suppressed = 0;  ///< arrivals discarded by dedup
  std::uint64_t out_of_order = 0;    ///< arrivals buffered awaiting a gap
  std::uint64_t acks_sent = 0;       ///< standalone ack packets on the wire
  /// Cumulative acks that rode in a reverse-direction data packet's header
  /// instead of costing a standalone ack_bytes message.
  std::uint64_t acks_piggybacked = 0;
  std::uint64_t expirations = 0;  ///< packets abandoned at the cap
  /// Expired packets that a late-arriving copy delivered anyway and a
  /// cumulative ack then settled. Distinct from expirations: these packets
  /// were given up on, yet still reached the receiver.
  std::uint64_t expired_acked = 0;
  /// Expired packets put back on the retransmission state machine because
  /// an ack named them as the receiver's next expected sequence — proof the
  /// receiver is alive and still waiting on the gap.
  std::uint64_t revivals = 0;
  /// Largest (delivery time - first send time) over all released packets —
  /// the worst case a retransmitted message was late by.
  sim::Duration max_delivery_delay_ns = 0;
};

class ReliableChannel {
 public:
  explicit ReliableChannel(Network& net, ReliableConfig cfg = {})
      : net_(&net), cfg_(cfg) {}

  ReliableChannel(const ReliableChannel&) = delete;
  ReliableChannel& operator=(const ReliableChannel&) = delete;

  /// Reliable counterpart of Network::send_hops: `on_delivery` runs exactly
  /// once, after every earlier send() for the same (src, dst) pair has been
  /// released, regardless of injected loss/duplication/reorder (within the
  /// retransmit cap).
  void send(NodeId src, NodeId dst, unsigned hops, std::uint32_t bytes,
            std::string_view tag, DeliveryFn on_delivery);

  [[nodiscard]] const ReliableStats& stats() const { return stats_; }
  [[nodiscard]] const ReliableConfig& config() const { return cfg_; }

  /// Packets sent but not yet cumulatively acked (includes abandoned ones);
  /// 0 once a fault-free or recovered simulation drains.
  [[nodiscard]] std::size_t in_flight() const;

 private:
  struct Packet {
    unsigned hops;
    std::uint32_t bytes;
    std::string_view tag;
    DeliveryFn on_delivery;  // cleared once released
    sim::Time first_sent;
    // Earliest first-timeout deadline: first_sent + path_rto, but never
    // before the previous packet's (its cumulative ack covers this one).
    sim::Time ack_by = 0;
    unsigned attempts = 0;      // retransmissions so far
    sim::EventId timer = 0;     // 0 = no timer armed
    bool received = false;      // receiver end has consumed this seq
    bool expired = false;       // abandoned at the retransmit cap
  };
  // Sequences are 0-based. Acks carry the receiver's next expected sequence
  // number verbatim ("everything below this has been released"), so
  // "nothing released yet" is the natural value 0 — never the result of a
  // subtraction that could wrap when the first packet is still missing.
  struct Flow {
    std::uint64_t next_seq = 0;       // sender: next sequence to assign
    std::uint64_t next_release = 0;   // receiver: next seq to deliver
    unsigned hops = 0;                // reverse-path length for acks
    std::map<std::uint64_t, Packet> packets;  // unacked, keyed by seq
    // Delayed-ack state (ack_delay_ns > 0): an ack is owed for releases on
    // this flow and may be piggybacked on the next reverse-direction packet.
    bool ack_pending = false;
    sim::EventId ack_timer = 0;  // 0 = no standalone-ack timer armed
    sim::Time ack_due = 0;       // when the armed standalone ack departs
  };
  using FlowKey = std::uint64_t;
  static FlowKey key(NodeId src, NodeId dst) {
    return (static_cast<FlowKey>(src) << 32) | dst;
  }
  static NodeId key_src(FlowKey k) { return static_cast<NodeId>(k >> 32); }
  static NodeId key_dst(FlowKey k) {
    return static_cast<NodeId>(k & 0xffffffffull);
  }
  static FlowKey reverse(FlowKey k) { return key(key_dst(k), key_src(k)); }

  void transmit(FlowKey k, std::uint64_t seq, DeliveryKind kind);
  /// First-attempt timeout of a packet: 2 x its path's data + ack flight
  /// plus the delayed-ack window.
  [[nodiscard]] sim::Duration path_rto(const Packet& pkt) const;
  void arm_timer(FlowKey k, std::uint64_t seq);
  void on_timeout(FlowKey k, std::uint64_t seq);
  void on_data(FlowKey k, std::uint64_t seq);
  void on_ack(FlowKey k, std::uint64_t next_expected);
  void send_ack(FlowKey k);
  void note_ack_owed(FlowKey k);

  Network* net_;
  ReliableConfig cfg_;
  // std::map: iterator/reference stability under the reentrant sends that
  // delivery callbacks routinely perform (root sequencing fans back out).
  std::map<FlowKey, Flow> flows_;
  ReliableStats stats_;
};

}  // namespace optsync::net
