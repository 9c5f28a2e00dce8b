// Lease tier unit tests: grant/hit/update/expire mechanics of the leased
// read-replica cache, the epoch/orec lockstep invariant that anchors leased
// reads to the OCC validation order, directory bounds, and the
// full-replication inertness guarantees (default configs never construct
// the tier).
#include "shard/lease.hpp"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "dsm/system.hpp"
#include "shard/client.hpp"
#include "shard/sharded_store.hpp"

namespace optsync::shard {
namespace {

// Eight nodes, the first four of which carry the shard groups; nodes 4..7
// are pure clients whose only read path is the lease tier (or the
// linearizable round trip).
struct Fixture {
  explicit Fixture(ShardedStoreConfig cfg = partial_config())
      : topo(net::MeshTorus2D::near_square(8)),
        sys(sched, topo, dsm::DsmConfig{}),
        store(sys, cfg),
        client(store) {}

  static ShardedStoreConfig partial_config() {
    ShardedStoreConfig cfg;
    cfg.shards = 2;
    cfg.slots_per_shard = 32;
    cfg.lease.server_nodes = 4;
    cfg.lease.enabled = true;
    return cfg;
  }

  sim::Scheduler sched;
  net::MeshTorus2D topo;
  dsm::DsmSystem sys;
  ShardedStore store;
  Client client;

  LeaseManager& leases() { return *store.leases(); }

  // Runs one client-side op to completion and rethrows its failure.
  void run(sim::Process p) {
    sched.run();
    p.rethrow_if_failed();
  }

  std::optional<dsm::Word> read(dsm::NodeId n, Key k,
                                ConsistencyLevel level) {
    std::optional<dsm::Word> out;
    run(client.read(n, k, &out, {level}));
    return out;
  }

  void write(dsm::NodeId n, Key k, dsm::Word v) {
    run(client.write(n, k, v));
  }
};

TEST(LeaseConfigDefaults, FullReplicationNeverBuildsTheTier) {
  // The seed configuration: no server_nodes split, no lease manager, every
  // node a member. The deprecated surface and the Client facade both serve
  // reads from local replica memory.
  sim::Scheduler sched;
  const auto topo = net::MeshTorus2D::near_square(8);
  dsm::DsmSystem sys(sched, topo, dsm::DsmConfig{});
  ShardedStore store(sys, ShardedStoreConfig{});
  EXPECT_FALSE(store.partial());
  EXPECT_EQ(store.leases(), nullptr);
  for (dsm::NodeId n = 0; n < 8; ++n) EXPECT_TRUE(store.is_member(n));
}

TEST(LeaseConfigDefaults, NestedConfigDefaultsMatchTheSeedLayout) {
  // The nested TxnConfig / LeaseConfig blocks must default to OCC commits
  // and full replication with the tier off. test_determinism proves the
  // resulting runs are byte-identical; this pins the values the
  // fingerprint depends on.
  ShardedStoreConfig cfg;
  EXPECT_EQ(cfg.txn.mode, TxnMode::kOcc);
  EXPECT_FALSE(cfg.lease.enabled);
  EXPECT_EQ(cfg.lease.server_nodes, 0u);     // full replication
  EXPECT_EQ(cfg.lease.stripe_width, 1u);     // lease stripe == orec stripe
}

TEST(LeaseConfigDefaults, ServerSpanCoveringAllNodesNormalizesToFull) {
  ShardedStoreConfig cfg;
  cfg.lease.server_nodes = 8;  // == node count: nothing left to client
  sim::Scheduler sched;
  const auto topo = net::MeshTorus2D::near_square(8);
  dsm::DsmSystem sys(sched, topo, dsm::DsmConfig{});
  ShardedStore store(sys, cfg);
  EXPECT_FALSE(store.partial());
  EXPECT_EQ(store.leases(), nullptr);
}

TEST(Lease, MissGrantsThenHitsServeWithZeroMessages) {
  Fixture f;
  f.write(0, 7, 700);
  const ShardId s = f.store.shard_of(7);

  // First leased read from a client: a miss — one grant round trip.
  EXPECT_EQ(f.read(5, 7, ConsistencyLevel::kLeased),
            std::optional<dsm::Word>(700));
  EXPECT_EQ(f.leases().counters(s).grants, 1u);
  EXPECT_EQ(f.leases().counters(s).hits, 0u);

  // Repeat reads are local: hit counter moves, the wire does not.
  const std::uint64_t wire_before = f.sys.network().stats().messages;
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(f.read(5, 7, ConsistencyLevel::kLeased),
              std::optional<dsm::Word>(700));
  }
  EXPECT_EQ(f.sys.network().stats().messages, wire_before);
  EXPECT_EQ(f.leases().counters(s).hits, 5u);
  EXPECT_EQ(f.leases().counters(s).grants, 1u);
  EXPECT_TRUE(f.leases().auditor().ok()) << f.leases().auditor().report();
}

TEST(Lease, LinearizableReadsBypassTheCache) {
  Fixture f;
  f.write(0, 11, 42);
  const ShardId s = f.store.shard_of(11);

  EXPECT_EQ(f.read(6, 11, ConsistencyLevel::kLinearizable),
            std::optional<dsm::Word>(42));
  EXPECT_EQ(f.leases().counters(s).remote_reads, 1u);
  EXPECT_EQ(f.leases().counters(s).grants, 0u);

  // No lease was installed: a later leased read still has to fetch one.
  EXPECT_EQ(f.read(6, 11, ConsistencyLevel::kLeased),
            std::optional<dsm::Word>(42));
  EXPECT_EQ(f.leases().counters(s).grants, 1u);
}

TEST(Lease, WriteShipsUpdateAndHolderServesNewValueLocally) {
  Fixture f;
  f.write(0, 3, 30);
  EXPECT_EQ(f.read(4, 3, ConsistencyLevel::kLeased),
            std::optional<dsm::Word>(30));
  const ShardId s = f.store.shard_of(3);
  EXPECT_EQ(f.leases().counters(s).invalidations, 0u);

  // A write to the held stripe ships the holder one update-carrying
  // invalidation at the flush; the holder stays a holder, so the next
  // read is a HIT on the new value — no re-grant.
  f.write(1, 3, 31);
  EXPECT_EQ(f.leases().counters(s).invalidations, 1u);
  const std::uint64_t grants_before = f.leases().counters(s).grants;
  EXPECT_EQ(f.read(4, 3, ConsistencyLevel::kLeased),
            std::optional<dsm::Word>(31));
  EXPECT_EQ(f.leases().counters(s).grants, grants_before);
  EXPECT_GT(f.leases().counters(s).hits, 0u);
  EXPECT_TRUE(f.leases().auditor().ok()) << f.leases().auditor().report();
}

TEST(Lease, EpochAdvancesInLockstepWithOrecVersion) {
  Fixture f;
  const Key k = 9;
  const ShardId s = f.store.shard_of(k);
  const auto slot = static_cast<std::uint32_t>(f.store.slot_of(k));

  for (dsm::Word i = 1; i <= 4; ++i) {
    f.write(0, k, i * 10);
    // stripe_width == 1 pins lease stripe == slot == orec stripe, so the
    // directory epoch must equal the orec version every reader validates
    // (site id == shard id in the txn layer).
    EXPECT_EQ(f.leases().stripe_epoch(s, slot),
              f.store.txn_manager().orecs().version(f.store.root_of(s), s,
                                                    slot))
        << "after write " << i;
  }
  EXPECT_EQ(f.leases().stripe_epoch(s, slot), 4u);
}

sim::Process expiry_script(Fixture& f, Key k, bool* served_after_ttl) {
  // Grant with a short TTL, let it lapse, then read again: the lease must
  // not serve past its expiry — the re-read is a fresh grant.
  std::optional<dsm::Word> out;
  co_await f.client.read(4, k, &out, {ConsistencyLevel::kLeased}).join();
  co_await sim::delay(f.sched, 50'000);  // >> ttl_ns below
  out.reset();
  co_await f.client.read(4, k, &out, {ConsistencyLevel::kLeased}).join();
  *served_after_ttl = out.has_value();
}

TEST(Lease, TtlExpiryForcesRefetchAndPrunesSilently) {
  ShardedStoreConfig cfg = Fixture::partial_config();
  cfg.lease.ttl_ns = 10'000;
  Fixture f(cfg);
  f.write(0, 5, 55);
  const ShardId s = f.store.shard_of(5);

  bool served = false;
  f.run(expiry_script(f, 5, &served));
  EXPECT_TRUE(served);
  EXPECT_EQ(f.leases().counters(s).grants, 2u);  // expiry forced the refetch
  EXPECT_EQ(f.leases().counters(s).hits, 0u);
  EXPECT_TRUE(f.leases().auditor().ok()) << f.leases().auditor().report();

  // Let the second lease lapse too, then write the stripe: the flush prunes
  // the expired holder without a message — no invalidation is charged.
  f.run([](Fixture& fx) -> sim::Process {
    co_await sim::delay(fx.sched, 50'000);
  }(f));
  const std::uint64_t invals_before = f.leases().counters(s).invalidations;
  f.write(1, 5, 56);
  EXPECT_EQ(f.leases().counters(s).invalidations, invals_before);
  EXPECT_EQ(f.leases().directory_size(s), 0u);
}

TEST(Lease, TtlShorterThanTheRoundTripStillTerminates) {
  // Degenerate TTL: every grant expires in flight. The read must still
  // terminate (serving the grant's own atomic answer) instead of
  // re-requesting forever, and must return the authoritative value.
  ShardedStoreConfig cfg = Fixture::partial_config();
  cfg.lease.ttl_ns = 1;
  Fixture f(cfg);
  f.write(0, 7, 700);
  const ShardId s = f.store.shard_of(7);
  EXPECT_EQ(f.read(5, 7, ConsistencyLevel::kLeased),
            std::optional<dsm::Word>(700));
  EXPECT_EQ(f.read(5, 7, ConsistencyLevel::kLeased),
            std::optional<dsm::Word>(700));
  // Each read was one grant round trip, never a cache hit.
  EXPECT_EQ(f.leases().counters(s).grants, 2u);
  EXPECT_EQ(f.leases().counters(s).hits, 0u);
  EXPECT_TRUE(f.leases().auditor().ok()) << f.leases().auditor().report();
}

TEST(Lease, WarmSnapshotTxnReadsServeWithZeroMessages) {
  Fixture f;
  f.write(0, 21, 210);
  f.write(0, 22, 220);
  // Warm both stripes from client node 7.
  EXPECT_EQ(f.read(7, 21, ConsistencyLevel::kLeased),
            std::optional<dsm::Word>(210));
  EXPECT_EQ(f.read(7, 22, ConsistencyLevel::kLeased),
            std::optional<dsm::Word>(220));

  const std::uint64_t wire_before = f.sys.network().stats().messages;
  TxnRequest req;
  req.reads = {21, 22};
  TxnResult result;
  f.run(f.client.txn(7, req, &result, {ConsistencyLevel::kSnapshot}));
  ASSERT_EQ(result.values.size(), 2u);
  EXPECT_EQ(result.values[0], std::optional<dsm::Word>(210));
  EXPECT_EQ(result.values[1], std::optional<dsm::Word>(220));
  // Every stripe was warm: the whole multi-get was served locally.
  EXPECT_EQ(f.sys.network().stats().messages, wire_before);
  EXPECT_TRUE(f.leases().auditor().ok()) << f.leases().auditor().report();
}

TEST(Lease, DirectoryIsBoundedByClientsTimesStripes) {
  Fixture f;
  // Every client node leases a spread of keys on both shards. The store is
  // direct-mapped (slot_of hashes the key), so a later key colliding on a
  // slot evicts the earlier one — track the surviving writer per stripe and
  // expect nullopt for the evicted keys.
  std::vector<Key> keys;
  for (Key k = 1; k <= 24; ++k) keys.push_back(k);
  std::map<std::pair<ShardId, std::size_t>, Key> resident;
  for (const Key k : keys) {
    f.write(0, k, k * 2);
    resident[{f.store.shard_of(k), f.store.slot_of(k)}] = k;
  }
  for (dsm::NodeId n = 4; n < 8; ++n) {
    for (const Key k : keys) {
      const bool live =
          resident[{f.store.shard_of(k), f.store.slot_of(k)}] == k;
      EXPECT_EQ(f.read(n, k, ConsistencyLevel::kLeased),
                live ? std::optional<dsm::Word>(k * 2) : std::nullopt)
          << "key " << k;
    }
  }
  const std::size_t clients = 4;
  for (ShardId s = 0; s < 2; ++s) {
    EXPECT_LE(f.leases().directory_size(s),
              clients * f.leases().stripes());
    EXPECT_GT(f.leases().directory_size(s), 0u);
  }
}

TEST(Lease, DisabledTierStillForwardsWritesAndServesReads) {
  // Partial replication with the client cache switched off: reads work,
  // every one a remote round trip — the leases-off baseline the benches
  // compare against.
  ShardedStoreConfig cfg = Fixture::partial_config();
  cfg.lease.enabled = false;
  Fixture f(cfg);
  f.write(5, 13, 130);  // client-node write: forwarded to the root
  const ShardId s = f.store.shard_of(13);
  EXPECT_EQ(f.read(6, 13, ConsistencyLevel::kLeased),
            std::optional<dsm::Word>(130));
  EXPECT_EQ(f.read(6, 13, ConsistencyLevel::kLeased),
            std::optional<dsm::Word>(130));
  EXPECT_EQ(f.leases().counters(s).grants, 0u);
  EXPECT_EQ(f.leases().counters(s).hits, 0u);
  EXPECT_EQ(f.leases().counters(s).remote_reads, 2u);
  EXPECT_GT(f.leases().counters(s).forwarded, 0u);
}

TEST(Lease, MemberNodesNeverTouchTheLeaseTier) {
  Fixture f;
  f.write(0, 17, 170);
  const ShardId s = f.store.shard_of(17);
  // Reads on member nodes are plain local replica reads at every level.
  for (const auto level :
       {ConsistencyLevel::kLinearizable, ConsistencyLevel::kLeased,
        ConsistencyLevel::kSnapshot}) {
    EXPECT_EQ(f.read(2, 17, level), std::optional<dsm::Word>(170));
  }
  EXPECT_EQ(f.leases().counters(s).grants, 0u);
  EXPECT_EQ(f.leases().counters(s).hits, 0u);
  EXPECT_EQ(f.leases().counters(s).remote_reads, 0u);
}

TEST(Lease, ReplicasConvergeAndLedgersStayExactUnderClientTraffic) {
  Fixture f;
  for (Key k = 1; k <= 10; ++k) f.write(static_cast<dsm::NodeId>(k % 8), k, k);
  for (dsm::NodeId n = 4; n < 8; ++n) {
    for (Key k = 1; k <= 10; ++k) {
      EXPECT_EQ(f.read(n, k, ConsistencyLevel::kLeased),
                std::optional<dsm::Word>(k));
    }
  }
  for (ShardId s = 0; s < 2; ++s) {
    EXPECT_EQ(f.store.version(s),
              static_cast<dsm::Word>(f.store.committed_writes(s)))
        << "shard " << s;
  }
  EXPECT_TRUE(f.store.replicas_converged());
  EXPECT_TRUE(f.leases().auditor().ok()) << f.leases().auditor().report();
}

}  // namespace
}  // namespace optsync::shard
