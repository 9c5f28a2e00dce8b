// ReliableChannel: exactly-once, per-(src,dst) FIFO delivery over a lossy
// network — retransmission, duplicate suppression, reorder recovery, ack
// loss, and the retransmit cap.
#include "net/reliable_channel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "faults/fault_injector.hpp"
#include "net/network.hpp"

namespace optsync::net {
namespace {

struct Harness {
  sim::Scheduler sched;
  MeshTorus2D topo{2, 2};
  Network net{sched, topo, LinkModel::paper()};
  ReliableChannel rel{net, ReliableConfig{}};
};

// The first-attempt timeout contract with immediate acks, restated from the
// link model: twice the data + ack flight of the packet's own path.
sim::Duration path_rto(unsigned hops, std::uint32_t bytes) {
  const LinkModel link = LinkModel::paper();
  return 2 * (link.delay(hops, bytes) +
              link.delay(hops, ReliableConfig{}.ack_bytes));
}

TEST(ReliableChannel, FaultFreeDeliversInOrderAndDrains) {
  Harness h;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    h.rel.send(0, 1, 1, 16, "m", [&order, i] { order.push_back(i); });
  }
  h.sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(h.rel.stats().data_packets, 10u);
  EXPECT_EQ(h.rel.stats().retransmits, 0u);
  EXPECT_EQ(h.rel.stats().dup_suppressed, 0u);
  EXPECT_EQ(h.rel.stats().expirations, 0u);
  EXPECT_EQ(h.rel.in_flight(), 0u);  // every packet cumulatively acked
  EXPECT_GE(h.rel.stats().acks_sent, 1u);
}

TEST(ReliableChannel, LoopbackBypassesTheProtocol) {
  Harness h;
  int delivered = 0;
  h.rel.send(2, 2, 0, 16, "self", [&] { ++delivered; });
  h.sched.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(h.rel.stats().data_packets, 0u);
  EXPECT_EQ(h.rel.stats().acks_sent, 0u);
}

TEST(ReliableChannel, RetransmitRecoversFromDrops) {
  Harness h;
  // Drop the first three data transmissions outright; let acks through.
  int to_drop = 3;
  h.net.set_fault_hook([&to_drop](const MessageMeta& m) {
    FaultAction act;
    if (m.tag == "m" && to_drop > 0) {
      --to_drop;
      act.drop = true;
    }
    return act;
  });
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    h.rel.send(0, 1, 1, 16, "m", [&order, i] { order.push_back(i); });
  }
  h.sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_GE(h.rel.stats().retransmits, 3u);
  EXPECT_EQ(h.rel.stats().expirations, 0u);
  EXPECT_EQ(h.rel.in_flight(), 0u);
  // Recovery is visible in the latency accounting: a retransmitted packet
  // arrived at least one of its path-sized timeouts late.
  EXPECT_GE(h.rel.stats().max_delivery_delay_ns, path_rto(1, 16));
}

TEST(ReliableChannel, TailLossCostsOnePathRtoPlusOneFlight) {
  // A lone packet whose first copy is lost: no later packet on the flow can
  // provoke an out-of-order ack, so only the timer recovers it. Delivery is
  // exactly one path-sized timeout plus one flight after the send.
  Harness h;
  bool drop_one = true;
  h.net.set_fault_hook([&drop_one](const MessageMeta& m) {
    FaultAction act;
    if (m.tag == "m" && drop_one) {
      drop_one = false;
      act.drop = true;
    }
    return act;
  });
  sim::Time delivered_at = 0;
  h.rel.send(0, 3, 2, 16, "m", [&] { delivered_at = h.sched.now(); });
  h.sched.run();
  const sim::Time expected =
      path_rto(2, 16) + LinkModel::paper().delay(2, 16);
  EXPECT_EQ(delivered_at, expected);
  EXPECT_EQ(h.rel.stats().max_delivery_delay_ns, expected);
  EXPECT_EQ(h.rel.stats().retransmits, 1u);
  EXPECT_EQ(h.rel.in_flight(), 0u);
}

TEST(ReliableChannel, MixedSizesOnALossFreeFlowNeverRetransmit) {
  // A 1.5 KB frame and a 16 B control packet share one flow, in both send
  // orders. The small packet overtakes the large one on the wire and waits
  // for it; neither timer may fire before the cumulative ack lands.
  for (const bool large_first : {true, false}) {
    Harness h;
    std::vector<int> order;
    const std::uint32_t first = large_first ? 1500 : 16;
    const std::uint32_t second = large_first ? 16 : 1500;
    h.rel.send(0, 1, 1, first, "m", [&order] { order.push_back(0); });
    h.rel.send(0, 1, 1, second, "m", [&order] { order.push_back(1); });
    h.sched.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1})) << "large_first " << large_first;
    EXPECT_EQ(h.rel.stats().retransmits, 0u) << "large_first " << large_first;
    EXPECT_EQ(h.rel.stats().dup_suppressed, 0u);
    EXPECT_EQ(h.rel.in_flight(), 0u);
  }
}

TEST(ReliableChannel, InjectedDuplicatesAreSuppressed) {
  Harness h;
  faults::FaultPlan plan(5);
  plan.duplicate(1.0, "m");
  faults::FaultInjector inj(h.net, plan);
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    h.rel.send(0, 3, 2, 16, "m", [&order, i] { order.push_back(i); });
  }
  h.sched.run();
  // Exactly once each, in order, despite every packet arriving twice.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_GE(h.rel.stats().dup_suppressed, 8u);
  EXPECT_EQ(h.rel.in_flight(), 0u);
}

TEST(ReliableChannel, ReorderIsHeldAndReleasedInOrder) {
  Harness h;
  // Delay only the first packet far past the second: the receiver must hold
  // the early arrival and release 0 then 1.
  bool first = true;
  h.net.set_fault_hook([&first](const MessageMeta& m) {
    FaultAction act;
    if (m.tag == "m" && first) {
      first = false;
      act.extra_delay = 10'000;
    }
    return act;
  });
  std::vector<int> order;
  h.rel.send(0, 1, 1, 16, "m", [&order] { order.push_back(0); });
  h.rel.send(0, 1, 1, 16, "m", [&order] { order.push_back(1); });
  h.sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_GE(h.rel.stats().out_of_order, 1u);
  EXPECT_EQ(h.rel.in_flight(), 0u);
}

TEST(ReliableChannel, LostAcksCauseRetransmitThenDedup) {
  Harness h;
  // Kill the first four acks: the sender times out and retransmits packets
  // the receiver already consumed; dedup + re-ack settle the flow.
  int acks_to_drop = 4;
  h.net.set_fault_hook([&acks_to_drop](const MessageMeta& m) {
    FaultAction act;
    if (m.tag == "rel-ack" && acks_to_drop > 0) {
      --acks_to_drop;
      act.drop = true;
    }
    return act;
  });
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    h.rel.send(0, 1, 1, 16, "m", [&order, i] { order.push_back(i); });
  }
  h.sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_GE(h.rel.stats().retransmits, 1u);
  EXPECT_GE(h.rel.stats().dup_suppressed, 1u);
  EXPECT_EQ(h.rel.in_flight(), 0u);
}

TEST(ReliableChannel, RetransmitCapAbandonsAndCounts) {
  sim::Scheduler sched;
  const MeshTorus2D topo(2, 2);
  Network net(sched, topo, LinkModel::paper());
  ReliableConfig cfg;
  cfg.max_retransmits = 3;  // keep the backoff walk short
  ReliableChannel rel(net, cfg);
  net.set_fault_hook([](const MessageMeta& m) {
    FaultAction act;
    act.drop = m.tag == "void";  // this flow is permanently dark
    return act;
  });
  int delivered = 0;
  rel.send(0, 1, 1, 16, "void", [&] { ++delivered; });
  sched.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(rel.stats().retransmits, 3u);
  EXPECT_EQ(rel.stats().expirations, 1u);
  // The abandoned packet stays visible — a stuck flow is diagnosable.
  EXPECT_EQ(rel.in_flight(), 1u);
}

TEST(ReliableChannel, BackoffWalkFromPathBaseHitsCeilingAndCap) {
  // A permanently dark flow under the default config: the timers double
  // from the packet's path-sized base, clamp at max_rto_ns, and the packet
  // expires after exactly max_retransmits resends.
  sim::Scheduler sched;
  const MeshTorus2D topo(2, 2);
  Network net(sched, topo, LinkModel::paper());
  const ReliableConfig cfg;
  ReliableChannel rel(net, cfg);
  std::vector<sim::Time> sends;
  net.set_fault_hook([&sends](const MessageMeta& m) {
    sends.push_back(m.sent_at);
    FaultAction act;
    act.drop = true;
    return act;
  });
  sim::Time expired_at = 0;
  net.set_trace_hook([&expired_at](const MessageTrace& t) {
    if (t.kind == DeliveryKind::kExpired) expired_at = t.delivered_at;
  });
  int delivered = 0;
  rel.send(0, 1, 1, 16, "void", [&] { ++delivered; });
  sched.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(rel.stats().retransmits, cfg.max_retransmits);
  EXPECT_EQ(rel.stats().expirations, 1u);
  ASSERT_EQ(sends.size(), cfg.max_retransmits + 1u);
  // Each gap is the previous attempt's timer: base * backoff^i, capped.
  sim::Duration timer = path_rto(1, 16);
  sim::Time t = 0;
  for (std::size_t i = 0; i < sends.size(); ++i) {
    EXPECT_EQ(sends[i], t) << "attempt " << i;
    t += std::min(timer, cfg.max_rto_ns);
    timer = static_cast<sim::Duration>(static_cast<double>(timer) *
                                       cfg.backoff);
  }
  EXPECT_EQ(expired_at, t);
  // The walk reached the ceiling: the last timers all ran at max_rto_ns.
  EXPECT_EQ(sends.back() - sends[sends.size() - 2], cfg.max_rto_ns);
  EXPECT_EQ(expired_at - sends.back(), cfg.max_rto_ns);
}

TEST(ReliableChannel, TraceDistinguishesRetransmitAndSuppression) {
  Harness h;
  int to_drop = 1;
  h.net.set_fault_hook([&to_drop](const MessageMeta& m) {
    FaultAction act;
    // Drop the first transmission and duplicate the retransmission, so the
    // run exercises both rexmit and dedup trace kinds.
    if (m.tag == "m") {
      if (to_drop > 0) {
        --to_drop;
        act.drop = true;
      } else if (m.kind == DeliveryKind::kRetransmit) {
        act.duplicates = 1;
      }
    }
    return act;
  });
  std::vector<DeliveryKind> kinds;
  h.net.set_trace_hook(
      [&kinds](const MessageTrace& t) { kinds.push_back(t.kind); });
  int delivered = 0;
  h.rel.send(0, 1, 1, 16, "m", [&] { ++delivered; });
  h.sched.run();
  EXPECT_EQ(delivered, 1);
  auto count = [&kinds](DeliveryKind k) {
    std::size_t n = 0;
    for (const auto kk : kinds) n += kk == k;
    return n;
  };
  EXPECT_EQ(count(DeliveryKind::kInjectedDrop), 1u);
  EXPECT_GE(count(DeliveryKind::kRetransmit), 1u);
  EXPECT_GE(count(DeliveryKind::kDupSuppressed), 1u);
}

// Regression (ack encoding): an ack sent before anything was released must
// carry "next expected = 0" and erase nothing. The seed encoded acks as
// `next_release - 1`, which wrapped to UINT64_MAX in this state and
// cumulatively erased every in-flight packet — including the dropped one the
// receiver was still waiting for, wedging the flow forever.
TEST(ReliableChannel, AckBeforeFirstReleaseErasesNothing) {
  Harness h;
  // Drop only the very first transmission of packet 0; packet 1 gets through
  // and is held out of order, which makes the receiver ack "still at 0".
  bool drop_one = true;
  h.net.set_fault_hook([&drop_one](const MessageMeta& m) {
    FaultAction act;
    if (m.tag == "m" && drop_one) {
      drop_one = false;
      act.drop = true;
    }
    return act;
  });
  std::vector<int> order;
  h.rel.send(0, 1, 1, 16, "m", [&order] { order.push_back(0); });
  h.rel.send(0, 1, 1, 16, "m", [&order] { order.push_back(1); });
  // Run to the out-of-order ack's arrival (packet 1's flight plus the ack's),
  // which precedes packet 0's timeout: both packets must still be tracked
  // (nothing falsely acked), and none abandoned.
  const LinkModel link = LinkModel::paper();
  const sim::Time ack_lands =
      link.delay(1, 16) + link.delay(1, h.rel.config().ack_bytes);
  ASSERT_LT(ack_lands, path_rto(1, 16));
  h.sched.run_until(ack_lands);
  EXPECT_TRUE(order.empty());
  EXPECT_EQ(h.rel.in_flight(), 2u);
  EXPECT_EQ(h.rel.stats().expirations, 0u);
  // The retransmission then fills the gap and the flow drains in order.
  h.sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_GE(h.rel.stats().retransmits, 1u);
  EXPECT_EQ(h.rel.in_flight(), 0u);
}

// Regression (expiry + late ack): a packet abandoned at the retransmit cap
// can still be settled by a later cumulative ack (its delivery raced the
// expiry, or every ack was lost while copies got through). The seed asserted
// `received && !on_delivery` for every cumulatively acked packet, which an
// abandoned one violates — the ack handler crashed the simulation instead of
// counting the packet.
TEST(ReliableChannel, ExpiredThenAckedPacketIsToleratedAndCounted) {
  sim::Scheduler sched;
  const MeshTorus2D topo(2, 2);
  Network net(sched, topo, LinkModel::paper());
  ReliableConfig cfg;
  cfg.max_retransmits = 2;
  ReliableChannel rel(net, cfg);
  // Timeline from the link model: the packet's timers walk rto, 2 rto and
  // 4 rto, so the sender abandons it at 7 rto; the fault heals one rto
  // after that.
  const sim::Duration rto = path_rto(1, 16);
  const sim::Time expired_at = 7 * rto;
  const sim::Time heal = expired_at + rto;
  // Every ack is lost until `heal`: packet 0 is delivered immediately but
  // the sender never hears so, retransmits to the cap, and abandons it.
  net.set_fault_hook([&sched, heal](const MessageMeta& m) {
    FaultAction act;
    act.drop = m.tag == "rel-ack" && sched.now() < heal;
    return act;
  });
  std::vector<int> order;
  rel.send(0, 1, 1, 16, "m", [&order] { order.push_back(0); });
  sched.run_until(expired_at);
  EXPECT_EQ(order, (std::vector<int>{0}));  // receiver got it long ago
  EXPECT_EQ(rel.stats().expirations, 1u);   // sender gave up on it
  EXPECT_EQ(rel.in_flight(), 1u);
  // A second packet (acks now flow) produces a cumulative ack covering the
  // abandoned packet. The ack must settle it, not crash.
  sched.at(heal, [&rel, &order] {
    rel.send(0, 1, 1, 16, "m", [&order] { order.push_back(1); });
  });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(rel.stats().expired_acked, 1u);
  EXPECT_EQ(rel.stats().revivals, 0u);
  EXPECT_EQ(rel.in_flight(), 0u);
}

// An abandoned packet the receiver is still waiting for (it was never
// delivered — the flow is truly wedged) is revived when an ack names it as
// the next expected sequence: the ack proves the path and the receiver are
// alive, so the sender restarts the retransmission state machine rather than
// stalling every later packet in the out-of-order buffer forever.
TEST(ReliableChannel, WedgedFlowIsRevivedByLaterAck) {
  sim::Scheduler sched;
  const MeshTorus2D topo(2, 2);
  Network net(sched, topo, LinkModel::paper());
  ReliableConfig cfg;
  cfg.max_retransmits = 2;
  ReliableChannel rel(net, cfg);
  // Same link-model timeline as above: abandoned at 7 rto, healed at 8 rto.
  const sim::Duration rto = path_rto(1, 16);
  const sim::Time expired_at = 7 * rto;
  const sim::Time heal = expired_at + rto;
  // Packet 0 ("head") is dark until `heal` — original and all retransmits
  // die, so the sender abandons it at `expired_at`.
  net.set_fault_hook([&sched, heal](const MessageMeta& m) {
    FaultAction act;
    act.drop = m.tag == "head" && sched.now() < heal;
    return act;
  });
  std::vector<int> order;
  rel.send(0, 1, 1, 16, "head", [&order] { order.push_back(0); });
  sched.run_until(expired_at);
  EXPECT_TRUE(order.empty());
  EXPECT_EQ(rel.stats().expirations, 1u);
  // Packet 1 arrives out of order; the receiver's ack says "still expecting
  // 0", which revives the abandoned head and unwedges the flow.
  sched.at(heal, [&rel, &order] {
    rel.send(0, 1, 1, 16, "tail", [&order] { order.push_back(1); });
  });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(rel.stats().revivals, 1u);
  EXPECT_EQ(rel.stats().expired_acked, 0u);
  EXPECT_EQ(rel.in_flight(), 0u);
}

TEST(ReliableChannel, FlowsAreIndependentPerDirection) {
  Harness h;
  std::vector<std::string> order;
  h.rel.send(0, 1, 1, 16, "fwd", [&order] { order.push_back("fwd"); });
  h.rel.send(1, 0, 1, 16, "rev", [&order] { order.push_back("rev"); });
  h.rel.send(2, 1, 1, 16, "other", [&order] { order.push_back("other"); });
  h.sched.run();
  EXPECT_EQ(order.size(), 3u);
  EXPECT_EQ(h.rel.stats().data_packets, 3u);
  EXPECT_EQ(h.rel.in_flight(), 0u);
}

TEST(ReliableChannel, ZeroAckDelayNeverPiggybacks) {
  // The default config is the legacy protocol: every release acks
  // immediately on its own packet, nothing rides on reverse traffic.
  Harness h;
  h.rel.send(0, 1, 1, 16, "fwd", [] {});
  h.sched.at(1'000, [&h] { h.rel.send(1, 0, 1, 16, "rev", [] {}); });
  h.sched.run();
  EXPECT_EQ(h.rel.stats().acks_piggybacked, 0u);
  EXPECT_GE(h.rel.stats().acks_sent, 2u);
  EXPECT_EQ(h.rel.in_flight(), 0u);
}

TEST(ReliableChannel, AckRidesOnReverseTraffic) {
  sim::Scheduler sched;
  MeshTorus2D topo(2, 2);
  Network net(sched, topo, LinkModel::paper());
  ReliableConfig cfg;
  cfg.ack_delay_ns = 50'000;  // long window: the reverse send always wins
  ReliableChannel rel(net, cfg);
  bool fwd = false, rev = false;
  rel.send(0, 1, 1, 16, "fwd", [&fwd] { fwd = true; });
  // Reverse-direction data inside the window carries 0 -> 1's ack for free.
  sched.at(2'000, [&rel, &rev] {
    rel.send(1, 0, 1, 16, "rev", [&rev] { rev = true; });
  });
  sched.run();
  EXPECT_TRUE(fwd);
  EXPECT_TRUE(rev);
  EXPECT_GE(rel.stats().acks_piggybacked, 1u);
  EXPECT_EQ(rel.in_flight(), 0u);  // the piggybacked ack cleared the sender
  // The piggybacked release never also went out standalone; only the final
  // reverse packet (no forward traffic left to ride) costs an ack message.
  EXPECT_LE(rel.stats().acks_sent, 1u);
}

TEST(ReliableChannel, DelayedAckSkipsACarrierThatLandsLate) {
  // Reverse traffic inside the ack window is a 1.5 KB frame: carrying the
  // ack would land it long after the sender's path-sized timeout, so the
  // ack leaves standalone at the window's end and nothing is retransmitted.
  // A small reverse packet in the same window still carries it.
  for (const std::uint32_t rev_bytes : {1500u, 16u}) {
    sim::Scheduler sched;
    MeshTorus2D topo(2, 2);
    Network net(sched, topo, LinkModel::paper());
    ReliableConfig cfg;
    cfg.ack_delay_ns = 1'000;
    ReliableChannel rel(net, cfg);
    rel.send(0, 1, 1, 16, "fwd", [] {});
    // Released at the forward flight; the reverse send comes late in the
    // window, where a large carrier would land well past the timeout.
    const sim::Time rev_at = LinkModel::paper().delay(1, 16) + 900;
    sched.at(rev_at, [&rel, rev_bytes] {
      rel.send(1, 0, 1, rev_bytes, "rev", [] {});
    });
    sched.run();
    EXPECT_EQ(rel.stats().retransmits, 0u) << "rev_bytes " << rev_bytes;
    EXPECT_EQ(rel.stats().acks_piggybacked, rev_bytes == 16 ? 1u : 0u)
        << "rev_bytes " << rev_bytes;
    EXPECT_EQ(rel.in_flight(), 0u);
  }
}

TEST(ReliableChannel, IdleFlowFallsBackToStandaloneAck) {
  // No reverse traffic ever appears: the delayed ack must still go out on
  // its own packet after the idle window, or the sender retransmits forever.
  sim::Scheduler sched;
  MeshTorus2D topo(2, 2);
  Network net(sched, topo, LinkModel::paper());
  ReliableConfig cfg;
  cfg.ack_delay_ns = 4'000;
  ReliableChannel rel(net, cfg);
  int delivered = 0;
  for (int i = 0; i < 3; ++i) {
    rel.send(0, 1, 1, 16, "fwd", [&delivered] { ++delivered; });
  }
  sched.run();
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(rel.stats().acks_piggybacked, 0u);
  EXPECT_GE(rel.stats().acks_sent, 1u);
  EXPECT_EQ(rel.in_flight(), 0u);
}

TEST(ReliableChannel, DelayedAcksSurviveLossOnBothDirections) {
  // Piggybacking under 20% loss each way: dup-triggered loss-recovery acks
  // are never delayed, so the flows still drain and FIFO still holds.
  sim::Scheduler sched;
  MeshTorus2D topo(2, 2);
  Network net(sched, topo, LinkModel::paper());
  ReliableConfig cfg;
  cfg.ack_delay_ns = 4'000;
  ReliableChannel rel(net, cfg);
  faults::FaultPlan plan(11);
  plan.drop(0.20, "fwd").drop(0.20, "rev");
  faults::FaultInjector inj(net, plan);
  std::vector<int> fwd_order, rev_order;
  for (int i = 0; i < 12; ++i) {
    sched.at(static_cast<sim::Time>(i) * 3'000, [&rel, &fwd_order, i] {
      rel.send(0, 1, 1, 16, "fwd", [&fwd_order, i] { fwd_order.push_back(i); });
    });
    sched.at(static_cast<sim::Time>(i) * 3'000 + 500, [&rel, &rev_order, i] {
      rel.send(1, 0, 1, 16, "rev", [&rev_order, i] { rev_order.push_back(i); });
    });
  }
  sched.run();
  ASSERT_EQ(fwd_order.size(), 12u);
  ASSERT_EQ(rev_order.size(), 12u);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(fwd_order[static_cast<std::size_t>(i)], i);
    EXPECT_EQ(rev_order[static_cast<std::size_t>(i)], i);
  }
  EXPECT_GE(rel.stats().acks_piggybacked, 1u);
  EXPECT_EQ(rel.stats().expirations, 0u);
  EXPECT_EQ(rel.in_flight(), 0u);
}

}  // namespace
}  // namespace optsync::net
