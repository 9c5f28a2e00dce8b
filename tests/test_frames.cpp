// Root write coalescing: the multicast frame model (dsm/frame.hpp) and the
// GroupRoot batching built on it. The invariant under test throughout:
// framing changes packaging — message counts, wire bytes, flush timing —
// and NEVER the sequenced write stream a member observes. Sequence numbers
// are assigned at root arrival, before batching, so every batch size must
// produce the same applied (var, value, origin) stream per node and the
// same grant order.
#include "dsm/frame.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "dsm/system.hpp"
#include "faults/fault_plan.hpp"
#include "net/topology.hpp"
#include "simkern/coro.hpp"
#include "sync/gwc_lock.hpp"
#include "trace/gwc_checker.hpp"
#include "trace/recorder.hpp"

namespace optsync::dsm {
namespace {

// ------------------------------------------------------------ wire model ---

TEST(FrameWireBytes, OneWriteFrameCostsExactlyTheUnbatchedMessage) {
  // The unbatched protocol is the n = 1 special case, byte for byte.
  EXPECT_EQ(frame_wire_bytes(16, 1, 8), 16u);
  EXPECT_EQ(frame_wire_bytes(40, 1, 8), 40u);
  EXPECT_EQ(frame_wire_bytes(20, 1, 12), 20u);
}

TEST(FrameWireBytes, SharedHeaderAmortizesAcrossWrites) {
  // Four 16-byte writes share one 8-byte header: 64 - 3*8 = 40.
  EXPECT_EQ(frame_wire_bytes(64, 4, 8), 40u);
  // Two 20-byte writes, 12-byte header: 40 - 12 = 28.
  EXPECT_EQ(frame_wire_bytes(40, 2, 12), 28u);
}

TEST(FrameWireBytes, FlooredAtHeaderPlusRecordStubs) {
  // Eight 8-byte writes would amortize to 64 - 56 = 8, but each write keeps
  // a 4-byte record stub: floor = 8 + 4*8 = 40.
  EXPECT_EQ(frame_wire_bytes(64, 8, 8), 40u);
  EXPECT_EQ(frame_wire_bytes(0, 3, 8), 8u + 12u);
}

TEST(FrameWireBytes, EmptyFrameIsFree) {
  EXPECT_EQ(frame_wire_bytes(0, 0, 8), 0u);
}

Frame make_frame(std::uint64_t first_seq, std::size_t n) {
  Frame f;
  for (std::size_t i = 0; i < n; ++i) {
    f.writes.push_back(SequencedWrite{
        first_seq + i, static_cast<VarId>(i % 3),
        static_cast<Word>(100 + i), static_cast<NodeId>(i % 2)});
  }
  return f;
}

TEST(FrameSplitMerge, RoundTripsExactly) {
  const Frame f = make_frame(7, 10);
  const auto parts = split_frame(f, 3);
  ASSERT_EQ(parts.size(), 4u);  // 3 + 3 + 3 + 1
  EXPECT_EQ(parts[0].size(), 3u);
  EXPECT_EQ(parts[3].size(), 1u);
  // Chunks preserve order and contiguous sequence numbers.
  EXPECT_EQ(parts[0].first_seq(), 7u);
  EXPECT_EQ(parts[1].first_seq(), 10u);
  EXPECT_EQ(parts[3].last_seq(), 16u);
  const Frame merged = merge_frames(parts);
  ASSERT_EQ(merged.size(), f.size());
  for (std::size_t i = 0; i < f.size(); ++i) {
    EXPECT_EQ(merged.writes[i].seq, f.writes[i].seq);
    EXPECT_EQ(merged.writes[i].var, f.writes[i].var);
    EXPECT_EQ(merged.writes[i].value, f.writes[i].value);
    EXPECT_EQ(merged.writes[i].origin, f.writes[i].origin);
  }
}

TEST(FrameSplitMerge, ZeroMaxWritesIsTreatedAsOne) {
  const Frame f = make_frame(1, 4);
  const auto parts = split_frame(f, 0);
  ASSERT_EQ(parts.size(), 4u);
  for (const auto& p : parts) EXPECT_EQ(p.size(), 1u);
}

// --------------------------------------------- batching at the live root ---

/// Two nodes contend for one lock over a batching root; each holder streams
/// writes into the guarded variables and releases. Deterministic: fixed
/// start offsets, no randomness.
struct ContendedRun {
  /// Applied mutex-data writes per node as (var, value, origin) — the
  /// observable stream batching must not change. Sequence numbers are
  /// deliberately excluded: contended lock words may be sequenced
  /// differently when grant *delivery* shifts, but the data stream and the
  /// grant order may not.
  std::map<net::NodeId,
           std::vector<std::tuple<VarId, Word, net::NodeId>>> applied;
  std::vector<net::NodeId> grant_order;
  std::uint64_t frames = 0;
  std::uint64_t size_flushes = 0;
  std::uint64_t timer_flushes = 0;
  std::uint64_t messages = 0;
  std::uint64_t hop_bytes = 0;
  std::uint64_t mixed_frames = 0;  ///< frames carrying lock + mutex-data
  bool checker_ok = false;
  std::string checker_report;
};

sim::Process contender(DsmSystem& sys, sync::GwcQueueLock& lk,
                       const std::vector<VarId>& data, net::NodeId me,
                       sim::Duration start_at,
                       std::vector<net::NodeId>& grants) {
  auto& sched = sys.scheduler();
  co_await sim::delay(sched, start_at);
  for (int round = 0; round < 2; ++round) {
    co_await lk.acquire(me).join();
    grants.push_back(me);
    auto& node = sys.node(me);
    for (std::size_t w = 0; w < data.size(); ++w) {
      co_await sim::delay(sched, 400);
      node.write(data[w],
                 static_cast<Word>(me) * 1000 + round * 100 +
                     static_cast<Word>(w));
    }
    lk.release(me);
    co_await sim::delay(sched, 2'000);
  }
}

ContendedRun run_contended(std::uint32_t batch) {
  ContendedRun out;
  sim::Scheduler sched;
  net::FullyConnected topo(3);
  trace::Recorder rec(1 << 16);
  trace::GwcChecker checker;
  checker.install(rec);
  DsmConfig cfg;
  cfg.coalesce_max_writes = batch;
  cfg.recorder = &rec;
  DsmSystem sys(sched, topo, cfg);
  const GroupId g = sys.create_group({0, 1, 2}, 0);
  const VarId lock = sys.define_lock("l", g);
  std::vector<VarId> data;
  for (int w = 0; w < 6; ++w) {
    std::string name = "m";
    name += std::to_string(w);
    data.push_back(sys.define_mutex_data(std::move(name), g, lock));
  }
  sync::GwcQueueLock lk(sys, lock);
  for (net::NodeId n = 0; n < 3; ++n) sys.node(n).enable_applied_log(true);

  std::vector<sim::Process> procs;
  procs.push_back(contender(sys, lk, data, 1, 0, out.grant_order));
  procs.push_back(contender(sys, lk, data, 2, 500, out.grant_order));
  sched.run();
  for (const auto& p : procs) p.rethrow_if_failed();
  for (const auto& p : procs) EXPECT_TRUE(p.done());

  for (net::NodeId n = 0; n < 3; ++n) {
    for (const auto& u : sys.node(n).applied_log(g)) {
      if (sys.var(u.var).kind == VarKind::kMutexData) {
        out.applied[n].emplace_back(u.var, u.value, u.origin);
      }
    }
  }
  out.frames = sys.root_of(g).stats().frames;
  out.size_flushes = sys.root_of(g).stats().size_flushes;
  out.timer_flushes = sys.root_of(g).stats().timer_flushes;
  out.messages = sys.network().stats().messages;
  out.hop_bytes = sys.network().stats().hop_bytes;
  out.checker_ok = checker.ok();
  out.checker_report = checker.report();

  // Reconstruct each flushed frame's [first, last] sequence range and count
  // the frames that carry both a lock word and mutex-data — a grant riding
  // in the same frame as the releaser's final writes.
  std::map<std::uint64_t, std::string_view> label_by_seq;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
  rec.for_each([&](const trace::Event& e) {
    if (e.kind == trace::EventKind::kRootSequence) {
      label_by_seq[e.seq] = e.label;
    } else if (e.kind == trace::EventKind::kFrameFlush) {
      ranges.emplace_back(e.seq,
                          e.seq + static_cast<std::uint64_t>(e.value) - 1);
    }
  });
  for (const auto& [first, last] : ranges) {
    bool has_lock = false, has_data = false;
    for (std::uint64_t s = first; s <= last; ++s) {
      const auto it = label_by_seq.find(s);
      if (it == label_by_seq.end()) continue;
      if (it->second == "lock") has_lock = true;
      if (it->second == "mutex-data") has_data = true;
    }
    if (has_lock && has_data) ++out.mixed_frames;
  }
  return out;
}

TEST(RootCoalescing, BatchSweepPreservesAppliedDataAndGrantOrder) {
  const auto b1 = run_contended(1);
  const auto b4 = run_contended(4);
  const auto b64 = run_contended(64);
  ASSERT_TRUE(b1.checker_ok) << b1.checker_report;
  ASSERT_TRUE(b4.checker_ok) << b4.checker_report;
  ASSERT_TRUE(b64.checker_ok) << b64.checker_report;
  // Four sections of six writes happened in the same order everywhere.
  EXPECT_EQ(b1.grant_order.size(), 4u);
  EXPECT_EQ(b1.grant_order, b4.grant_order);
  EXPECT_EQ(b1.grant_order, b64.grant_order);
  EXPECT_EQ(b1.applied, b4.applied);
  EXPECT_EQ(b1.applied, b64.applied);
  // Batching only ever removes messages and bytes from the wire.
  EXPECT_LT(b64.frames, b1.frames);
  EXPECT_LT(b64.messages, b1.messages);
  EXPECT_LT(b64.hop_bytes, b1.hop_bytes);
  EXPECT_LE(b4.messages, b1.messages);
}

TEST(RootCoalescing, UnbatchedRootShipsOneFramePerWrite) {
  const auto b1 = run_contended(1);
  // Every frame closed by the size cap (cap = 1), none by the timer: the
  // batch=1 configuration is behaviorally the pre-coalescing protocol.
  EXPECT_EQ(b1.timer_flushes, 0u);
  EXPECT_EQ(b1.size_flushes, b1.frames);
}

TEST(RootCoalescing, GrantRidesInTheSameFrameAsTheReleasersWrites) {
  const auto b64 = run_contended(64);
  // With a large cap the queued grant is sequenced while the releaser's
  // final writes are still pending in the open frame, so at least one frame
  // mixes lock words with mutex-data.
  EXPECT_GE(b64.mixed_frames, 1u);
  // Lock cut-through ships a frame the moment a lock word lands, so in this
  // lock-paced workload no grant ever waits for the coalesce timer: every
  // flush is a size/lock flush. (Before cut-through the grants sat in the
  // open frame until the timer fired — one hand-off per timer period.)
  EXPECT_EQ(b64.timer_flushes, 0u);
  EXPECT_EQ(b64.size_flushes, b64.frames);
}

TEST(RootCoalescing, PartialFrameLossRecoversToIdenticalStreams) {
  // Down-frames (root -> member copies) are dropped, duplicated, and
  // delayed; each member loses *different* copies of the multicast, yet the
  // reliable layer must rebuild the identical sequenced stream on all of
  // them.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    sim::Scheduler sched;
    net::Ring topo(6);
    trace::Recorder rec(1 << 10);
    trace::GwcChecker checker;
    checker.install(rec);
    DsmConfig cfg;
    cfg.coalesce_max_writes = 8;
    cfg.faults = faults::FaultPlan(seed);
    cfg.faults.drop(0.25, "data-down").duplicate(0.05).delay(0.10, 3'000);
    cfg.recorder = &rec;
    DsmSystem sys(sched, topo, cfg);
    ASSERT_TRUE(sys.reliable_transport());

    std::vector<net::NodeId> members;
    for (net::NodeId i = 0; i < 6; ++i) members.push_back(i);
    const GroupId g = sys.create_group(members, 2);
    std::vector<VarId> vars;
    for (int v = 0; v < 3; ++v) {
      std::string name = "v";
      name += std::to_string(v);
      vars.push_back(sys.define_data(std::move(name), g));
    }
    for (const net::NodeId m : members) sys.node(m).enable_applied_log(true);

    constexpr std::size_t kWrites = 24;
    for (std::size_t k = 0; k < kWrites; ++k) {
      const auto writer = static_cast<net::NodeId>((k * 5) % 6);
      const VarId var = vars[k % vars.size()];
      sched.at(k * 1'500, [&sys, writer, var, k] {
        sys.node(writer).write(var, static_cast<Word>(k + 1));
      });
    }
    sched.run();

    EXPECT_EQ(sys.reliable().stats().expirations, 0u) << "seed " << seed;
    EXPECT_EQ(sys.reliable().in_flight(), 0u) << "seed " << seed;
    EXPECT_GT(sys.network().stats().drops_injected, 0u) << "seed " << seed;

    const auto& reference = sys.node(members[0]).applied_log(g);
    ASSERT_EQ(reference.size(), kWrites) << "seed " << seed;
    for (const net::NodeId m : members) {
      const auto& log = sys.node(m).applied_log(g);
      ASSERT_EQ(log.size(), reference.size())
          << "node " << m << " seed " << seed;
      for (std::size_t i = 0; i < log.size(); ++i) {
        EXPECT_EQ(log[i].seq, reference[i].seq);
        EXPECT_EQ(log[i].var, reference[i].var);
        EXPECT_EQ(log[i].value, reference[i].value);
        EXPECT_EQ(log[i].origin, reference[i].origin);
      }
    }
    EXPECT_TRUE(checker.ok()) << "seed " << seed << ": " << checker.report();
    EXPECT_GT(checker.writes_checked(), 0u);
  }
}

}  // namespace
}  // namespace optsync::dsm
