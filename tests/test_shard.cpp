// Shard directory and sharded-store tests: key routing is deterministic and
// total, every shard keeps its own serializability ledger exact (version
// word == committed writes, invariant 2 per shard), replicas of every shard
// converge, and the per-shard lock-policy plumbing (queue / optimistic /
// adaptive) routes writes the way the config says.
#include "shard/sharded_store.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "dsm/system.hpp"
#include "shard/client.hpp"
#include "shard/shard_map.hpp"
#include "trace/gwc_checker.hpp"
#include "trace/recorder.hpp"

namespace optsync::shard {
namespace {

// ------------------------------------------------------------- ShardMap ---

TEST(ShardMap, HashRoutesEveryKeyInRange) {
  const auto map = ShardMap::hashed(8);
  std::set<ShardId> hit;
  for (Key k = 1; k <= 4'000; ++k) {
    const ShardId s = map.shard_of(k);
    ASSERT_LT(s, 8u);
    hit.insert(s);
  }
  // splitmix64 spreads a dense key range over all shards.
  EXPECT_EQ(hit.size(), 8u);
}

TEST(ShardMap, HashIsDeterministic) {
  const auto a = ShardMap::hashed(16);
  const auto b = ShardMap::hashed(16);
  for (Key k = 1; k <= 500; ++k) EXPECT_EQ(a.shard_of(k), b.shard_of(k));
}

TEST(ShardMap, RangeStripesAreContiguous) {
  const auto map = ShardMap::ranged(4, 1000);
  EXPECT_EQ(map.stripe_width(), 250u);
  EXPECT_EQ(map.shard_of(0), 0u);
  EXPECT_EQ(map.shard_of(249), 0u);
  EXPECT_EQ(map.shard_of(250), 1u);
  EXPECT_EQ(map.shard_of(999), 3u);
  // Keys beyond the declared space land on the last shard, not out of range.
  EXPECT_EQ(map.shard_of(5'000), 3u);
}

TEST(ShardMap, SingleShardTakesEverything) {
  const auto map = ShardMap::hashed(1);
  for (Key k = 1; k <= 100; ++k) EXPECT_EQ(map.shard_of(k), 0u);
}

// Regression: range routing computed key / (key_space / shards), which (a)
// dumped the whole division remainder on the LAST stripe (up to 2x width
// at small key spaces) and (b) routed the top keys of an uneven space past
// shards - 1. Balanced striping spreads the remainder one key per stripe;
// this sweep checks every key of several adversarial spaces against a
// directly computed stripe walk, plus the max-key/overflow clamps.
TEST(ShardMap, RangeBoundariesExhaustive) {
  const struct {
    std::uint32_t shards;
    Key space;
  } cases[] = {
      {1, 1},   {1, 7},    {2, 3},    {3, 10},   {4, 1000},
      {7, 100}, {8, 1024}, {16, 100}, {5, 5},    {6, 13},
  };
  for (const auto& c : cases) {
    const auto map = ShardMap::ranged(c.shards, c.space);
    const Key base = c.space / c.shards;
    const std::uint32_t wide = static_cast<std::uint32_t>(c.space % c.shards);
    EXPECT_EQ(map.stripe_width(), base);
    EXPECT_EQ(map.wide_stripes(), wide);
    // Walk the stripes exactly as the spec says and check every key.
    Key k = 0;
    std::uint64_t last_count = 0;
    for (std::uint32_t s = 0; s < c.shards; ++s) {
      const Key width = base + (s < wide ? 1 : 0);
      for (Key i = 0; i < width; ++i, ++k) {
        ASSERT_EQ(map.shard_of(k), s)
            << "shards=" << c.shards << " space=" << c.space << " key=" << k;
      }
      last_count = width;
    }
    EXPECT_EQ(k, c.space);  // the walk covered the whole space
    // No stripe is more than one key wider than another.
    EXPECT_GE(last_count + 1, base);
    // Keys at and past the end of the space clamp to the last shard.
    EXPECT_EQ(map.shard_of(c.space), c.shards - 1);
    EXPECT_EQ(map.shard_of(c.space + 1), c.shards - 1);
    EXPECT_EQ(map.shard_of(~Key{0}), c.shards - 1);  // max 64-bit key
  }
}

TEST(ShardMap, HashModeBoundaryKeysStayInRange) {
  for (const std::uint32_t shards : {1u, 2u, 3u, 8u, 16u, 64u}) {
    const auto map = ShardMap::hashed(shards);
    for (const Key k : {Key{0}, Key{1}, Key{shards}, Key{shards} - 1,
                        ~Key{0}, ~Key{0} - 1, Key{1} << 63}) {
      EXPECT_LT(map.shard_of(k), shards) << "shards=" << shards << " k=" << k;
    }
  }
}

TEST(ShardMap, RangeKeepsNeighbouringKeysTogether) {
  // The locality property hash sharding gives up: all but shards-1 of the
  // adjacent key pairs share a shard.
  const auto map = ShardMap::ranged(8, 1000);
  std::uint32_t splits = 0;
  for (Key k = 0; k + 1 < 1000; ++k) {
    if (map.shard_of(k) != map.shard_of(k + 1)) ++splits;
  }
  EXPECT_EQ(splits, 7u);
}

// --------------------------------------------------------- ShardedStore ---

struct Fixture {
  explicit Fixture(ShardedStoreConfig cfg = {}, dsm::DsmConfig dcfg = {})
      : topo(net::MeshTorus2D::near_square(8)),
        sys(sched, topo, dcfg),
        store(sys, cfg),
        client(store) {}
  sim::Scheduler sched;
  net::MeshTorus2D topo;
  dsm::DsmSystem sys;
  ShardedStore store;
  Client client;
};

sim::Process put_batch(Fixture& f, dsm::NodeId n, std::vector<Key> keys,
                       dsm::Word base) {
  for (const Key k : keys) {
    co_await f.client.write(n, k, base + static_cast<dsm::Word>(k)).join();
  }
}

// Member-node reads complete without scheduler involvement, so the process
// is done the moment read() returns.
std::optional<dsm::Word> read_now(Fixture& f, dsm::NodeId n, Key k) {
  std::optional<dsm::Word> out;
  auto p = f.client.read(n, k, &out);
  EXPECT_TRUE(p.done());
  return out;
}

TEST(ShardedStore, PutGetRoundtripAcrossShards) {
  // Plenty of slots per shard so this key set maps collision-free (the
  // store is slot-addressed like a cache: a colliding later put evicts).
  ShardedStoreConfig cfg;
  cfg.slots_per_shard = 64;
  Fixture f(cfg);
  auto p = put_batch(f, 0, {1, 2, 3, 17, 101, 999}, 5'000);
  f.sched.run();
  p.rethrow_if_failed();
  // Reads are local on every node — all replicas serve the same values.
  for (const dsm::NodeId n : {0u, 3u, 7u}) {
    for (const Key k : {1ull, 2ull, 3ull, 17ull, 101ull, 999ull}) {
      const auto got = read_now(f, n, k);
      ASSERT_TRUE(got.has_value()) << "key " << k << " on node " << n;
      EXPECT_EQ(*got, 5'000 + static_cast<dsm::Word>(k));
    }
  }
  EXPECT_FALSE(read_now(f, 0, 123'456).has_value());
}

TEST(ShardedStore, PerShardLedgerStaysExactUnderContention) {
  ShardedStoreConfig cfg;
  cfg.shards = 4;
  Fixture f(cfg);
  std::vector<sim::Process> procs;
  for (dsm::NodeId n = 0; n < 8; ++n) {
    std::vector<Key> keys;
    for (Key k = 1; k <= 12; ++k) keys.push_back(k * 7 + n);
    procs.push_back(put_batch(f, n, std::move(keys), n * 1'000));
  }
  f.sched.run();
  for (auto& p : procs) p.rethrow_if_failed();
  for (ShardId s = 0; s < 4; ++s) {
    EXPECT_EQ(f.store.version(s),
              static_cast<dsm::Word>(f.store.committed_writes(s)))
        << "shard " << s;
  }
  EXPECT_TRUE(f.store.replicas_converged());
}

sim::Process txn_batch(Fixture& f, dsm::NodeId n, int rounds) {
  for (int r = 0; r < rounds; ++r) {
    TxnRequest req;
    req.puts = {
        {static_cast<Key>(r * 3 + 1), n * 100 + r},
        {static_cast<Key>(r * 3 + 2), n * 100 + r + 1},
        {static_cast<Key>(r * 3 + 3), n * 100 + r + 2},
    };
    co_await f.client.txn(n, std::move(req)).join();
  }
}

TEST(ShardedStore, MultiPutKeepsEveryInvolvedLedgerExact) {
  ShardedStoreConfig cfg;
  cfg.shards = 4;
  Fixture f(cfg);
  std::vector<sim::Process> procs;
  for (const dsm::NodeId n : {0u, 2u, 5u, 7u}) {
    procs.push_back(txn_batch(f, n, 6));
  }
  f.sched.run();
  for (auto& p : procs) p.rethrow_if_failed();
  std::uint64_t committed = 0;
  for (ShardId s = 0; s < 4; ++s) {
    EXPECT_EQ(f.store.version(s),
              static_cast<dsm::Word>(f.store.committed_writes(s)))
        << "shard " << s;
    committed += f.store.committed_writes(s);
  }
  EXPECT_GT(committed, 0u);
  EXPECT_GT(f.store.txn_stats().acquisitions, 0u);
  EXPECT_TRUE(f.store.replicas_converged());
}

TEST(ShardedStore, QueuePolicyUsesOnlyQueuePath) {
  ShardedStoreConfig cfg;
  cfg.shards = 2;
  cfg.lock = LockPolicy::kQueue;
  Fixture f(cfg);
  auto p = put_batch(f, 1, {1, 2, 3, 4, 5, 6, 7, 8}, 0);
  f.sched.run();
  p.rethrow_if_failed();
  for (ShardId s = 0; s < 2; ++s) {
    EXPECT_EQ(f.store.optimistic_path_ops(s), 0u);
  }
  EXPECT_EQ(f.store.queue_path_ops(0) + f.store.queue_path_ops(1), 8u);
  EXPECT_TRUE(f.store.replicas_converged());
}

TEST(ShardedStore, OptimisticPolicyUsesOnlyOptimisticPath) {
  ShardedStoreConfig cfg;
  cfg.shards = 2;
  cfg.lock = LockPolicy::kOptimistic;
  Fixture f(cfg);
  auto p = put_batch(f, 1, {1, 2, 3, 4, 5, 6, 7, 8}, 0);
  f.sched.run();
  p.rethrow_if_failed();
  for (ShardId s = 0; s < 2; ++s) {
    EXPECT_EQ(f.store.queue_path_ops(s), 0u);
  }
  EXPECT_EQ(f.store.optimistic_path_ops(0) + f.store.optimistic_path_ops(1),
            8u);
}

TEST(ShardedStore, AdaptiveGateSpeculatesWhenAlone) {
  // A single writer never observes a busy lock, so the store-level EWMA
  // stays at zero and every write takes the optimistic path.
  ShardedStoreConfig cfg;
  cfg.shards = 1;
  cfg.lock = LockPolicy::kAdaptive;
  Fixture f(cfg);
  auto p = put_batch(f, 3, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0);
  f.sched.run();
  p.rethrow_if_failed();
  EXPECT_EQ(f.store.queue_path_ops(0), 0u);
  EXPECT_EQ(f.store.optimistic_path_ops(0), 10u);
  EXPECT_DOUBLE_EQ(f.store.shard_history(0), 0.0);
}

TEST(ShardedStore, LockStatsCoverBothPaths) {
  // Whatever mix of protocols served the shard, one LockStats carries the
  // whole flight record: acquisitions == committed single-key writes.
  ShardedStoreConfig cfg;
  cfg.shards = 1;
  cfg.lock = LockPolicy::kQueue;
  Fixture f(cfg);
  auto a = put_batch(f, 0, {1, 2, 3}, 0);
  auto b = put_batch(f, 5, {4, 5, 6}, 0);
  f.sched.run();
  a.rethrow_if_failed();
  b.rethrow_if_failed();
  const auto& ls = f.store.lock_stats(0);
  EXPECT_EQ(ls.acquisitions, 6u);
  EXPECT_EQ(ls.acquire_ns.count(), 6u);
  EXPECT_EQ(ls.hold_ns.count(), 6u);
}

TEST(ShardedStore, FillReportRollsUpEveryShard) {
  ShardedStoreConfig cfg;
  cfg.shards = 3;
  Fixture f(cfg);
  auto p = put_batch(f, 0, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, 0);
  f.sched.run();
  p.rethrow_if_failed();
  stats::ServiceReport report;
  f.store.fill_report(report);
  ASSERT_EQ(report.shards.size(), 3u);
  std::uint64_t committed = 0;
  for (const auto& s : report.shards) {
    EXPECT_TRUE(s.serializable());
    EXPECT_FALSE(s.lock_name.empty());
    committed += s.committed_writes;
  }
  EXPECT_EQ(committed, 12u);
  EXPECT_TRUE(report.serializable());
  EXPECT_GT(report.messages, 0u);
}

// The pre-Client methods must keep working until callers finish migrating:
// each shim delegates to the Client entry points, so values written through
// one surface read back identically through the other.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"
sim::Process shim_ops(Fixture& f) {
  co_await f.store.put(0, 11, 110).join();
  std::vector<std::pair<Key, dsm::Word>> kvs;
  kvs.emplace_back(12, 120);
  kvs.emplace_back(13, 130);
  co_await f.store.multi_put(1, std::move(kvs)).join();
  std::vector<Key> rmw_keys;
  rmw_keys.push_back(11);
  co_await f.store.multi_rmw(2, std::move(rmw_keys), 5).join();
}

TEST(ShardedStore, DeprecatedShimsStillServe) {
  ShardedStoreConfig cfg;
  cfg.slots_per_shard = 16;
  Fixture f(cfg);
  auto p = shim_ops(f);
  f.sched.run();
  p.rethrow_if_failed();
  EXPECT_EQ(f.store.get(3, 11), std::optional<dsm::Word>(115));
  EXPECT_EQ(f.store.get(4, 12), std::optional<dsm::Word>(120));
  EXPECT_EQ(f.store.get(5, 13), std::optional<dsm::Word>(130));
  // And the new surface observes the same state.
  EXPECT_EQ(read_now(f, 6, 11), std::optional<dsm::Word>(115));

  std::vector<std::optional<dsm::Word>> snap;
  auto g = f.store.multi_get(0, {11, 12, 13}, &snap);
  f.sched.run();
  g.rethrow_if_failed();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0], std::optional<dsm::Word>(115));
  EXPECT_EQ(snap[1], std::optional<dsm::Word>(120));
  EXPECT_EQ(snap[2], std::optional<dsm::Word>(130));
  EXPECT_TRUE(f.store.replicas_converged());
}
#pragma GCC diagnostic pop

// ---------------------------------------------------------- stripe locks ---

/// Keys of shard `s` grouped by slot stripe, scanning 1..limit.
std::vector<std::vector<Key>> keys_by_stripe(const ShardedStore& store,
                                             ShardId s, Key limit = 2'000) {
  std::vector<std::vector<Key>> by(store.config().slots_per_shard);
  for (Key k = 1; k <= limit; ++k) {
    if (store.shard_of(k) == s) by[store.slot_of(k)].push_back(k);
  }
  return by;
}

sim::Process timed_write(Fixture& f, dsm::NodeId n, Key k, sim::Time* done) {
  co_await f.client.write(n, k, 7).join();
  *done = f.sched.now();
}

/// Two queue-path puts issued at t = 0 from two nodes; returns the later
/// completion. The section compute (50 us) dwarfs every wire leg, so
/// serialized sections finish >= 100 us, overlapping ones well before.
sim::Time two_put_makespan(Key a, Key b) {
  ShardedStoreConfig cfg;
  cfg.shards = 1;
  cfg.lock = LockPolicy::kQueue;
  cfg.write_compute_ns = 50'000;
  Fixture f(cfg);
  sim::Time da = 0;
  sim::Time db = 0;
  auto pa = timed_write(f, 1, a, &da);
  auto pb = timed_write(f, 2, b, &db);
  f.sched.run();
  pa.rethrow_if_failed();
  pb.rethrow_if_failed();
  EXPECT_EQ(f.store.version(0), 2);
  EXPECT_TRUE(f.store.replicas_converged());
  return std::max(da, db);
}

TEST(StripeLocks, PutsToDifferentStripesOfOneShardOverlap) {
  ShardedStoreConfig cfg;
  cfg.shards = 1;
  Fixture probe(cfg);
  const auto by = keys_by_stripe(probe.store, 0);
  ASSERT_GE(by[0].size(), 2u);
  ASSERT_FALSE(by[1].empty());
  // Different stripes: both sections run at once.
  EXPECT_LT(two_put_makespan(by[0][0], by[1][0]), 80'000u);
  // Same stripe: the second section waits for the first.
  EXPECT_GE(two_put_makespan(by[0][0], by[0][1]), 100'000u);
}

/// Counts lock-word messages node `n` sends up the tree.
struct LockUpCounter {
  explicit LockUpCounter(dsm::DsmSystem& sys, dsm::NodeId n) {
    sys.network().add_trace_observer([this, n](const net::MessageTrace& t) {
      if (t.src == n && t.tag == "lock-up") ++count;
    });
  }
  std::uint64_t count = 0;
};

TEST(StripeLocks, CommitOnTwoStripesSendsOneLockSetRequest) {
  for (const TxnMode mode : {TxnMode::kOcc, TxnMode::kLegacy}) {
    ShardedStoreConfig cfg;
    cfg.shards = 2;
    cfg.txn.mode = mode;
    Fixture f(cfg);
    const auto by = keys_by_stripe(f.store, 0);
    ASSERT_GE(by[2].size(), 2u);
    ASSERT_GE(by[5].size(), 2u);
    LockUpCounter ups(f.sys, 3);
    TxnRequest req;
    req.puts = {{by[2][0], 1}, {by[2][1], 2}, {by[5][0], 3}, {by[5][1], 4}};
    auto p = f.client.txn(3, std::move(req));
    f.sched.run();
    p.rethrow_if_failed();
    const auto& root = f.sys.root_of(f.store.group_of(0));
    // One request message for both stripes, one release message.
    EXPECT_EQ(root.stats().lock_set_requests, 1u) << txn_mode_name(mode);
    EXPECT_EQ(ups.count, 2u) << txn_mode_name(mode);
    std::uint64_t requests = 0;
    for (std::size_t k = 0; k < cfg.slots_per_shard; ++k) {
      requests += root.lock_state(f.store.lock_var(0, k)).requests;
    }
    EXPECT_EQ(requests, 2u);
    EXPECT_EQ(root.lock_state(f.store.lock_var(0, 2)).holder, dsm::kNoNode);
    EXPECT_EQ(root.lock_state(f.store.lock_var(0, 5)).holder, dsm::kNoNode);
    // The ledger counts the one section once, on the lowest stripe held.
    EXPECT_EQ(f.store.version(0), 1);
    EXPECT_EQ(f.store.committed_writes(0), 1u);
    EXPECT_EQ(f.sys.node(0).read(f.store.lock_var(0, 2)), dsm::kLockFree);
    EXPECT_TRUE(f.store.replicas_converged());
  }
}

TEST(StripeLocks, OptimisticPutJournalsOnlyItsStripe) {
  // A speculative put saves the slot key, value, orec and the stripe's
  // version word — four entries, whatever the shard's width.
  ShardedStoreConfig cfg;
  cfg.shards = 1;
  cfg.slots_per_shard = 32;
  cfg.lock = LockPolicy::kOptimistic;
  Fixture f(cfg);
  auto p = put_batch(f, 2, {1, 2, 3, 4, 5}, 0);
  f.sched.run();
  p.rethrow_if_failed();
  const auto& ls = f.store.lock_stats(0);
  EXPECT_EQ(ls.speculative_attempts, 5u);
  EXPECT_EQ(ls.journaled_vars, 4u * ls.speculative_attempts);
  EXPECT_EQ(f.store.version(0), 5);
}

TEST(StripeLocks, ContendedStripesKeepLedgerAndGwcExact) {
  // Every node hammers a mix of shared and private stripes under every
  // lock policy; writes and multi-stripe txns interleave. The per-shard
  // ledger (sum of stripe version words) must equal committed sections,
  // and every mutex-data write must be sequenced under its own stripe's
  // lock (GwcChecker rule 4, per lock variable).
  for (const LockPolicy policy :
       {LockPolicy::kQueue, LockPolicy::kOptimistic, LockPolicy::kAdaptive}) {
    ShardedStoreConfig cfg;
    cfg.shards = 2;
    cfg.lock = policy;
    trace::Recorder rec(1 << 10);
    trace::GwcChecker checker;
    checker.install(rec);
    dsm::DsmConfig dcfg;
    dcfg.recorder = &rec;
    Fixture f(cfg, dcfg);
    std::vector<sim::Process> procs;
    for (dsm::NodeId n = 0; n < 8; ++n) {
      if (n % 2 == 0) {
        procs.push_back(txn_batch(f, n, 5));
      } else {
        std::vector<Key> keys;
        for (Key k = 1; k <= 10; ++k) keys.push_back(k * 3 + n);
        procs.push_back(put_batch(f, n, std::move(keys), n * 100));
      }
    }
    f.sched.run();
    for (auto& p : procs) p.rethrow_if_failed();
    for (ShardId s = 0; s < 2; ++s) {
      EXPECT_EQ(f.store.version(s),
                static_cast<dsm::Word>(f.store.committed_writes(s)))
          << lock_policy_name(policy) << " shard " << s;
    }
    EXPECT_TRUE(f.store.replicas_converged()) << lock_policy_name(policy);
    EXPECT_TRUE(checker.ok()) << checker.report();
    EXPECT_GT(checker.writes_checked(), 0u);
  }
}

}  // namespace
}  // namespace optsync::shard
