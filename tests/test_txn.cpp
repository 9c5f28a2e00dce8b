// OCC transaction-layer unit tests: orec versioning propagates with the
// frames, speculative writes stay local until commit, the undo log
// restores exact bytes on abort, read-set validation catches conflicting
// commits, a read-set clobber dooms the transaction while a blind write
// survives it (and aborts converge on the foreign committed value), a
// transaction with a repair step re-runs its stale covered stripes under
// its commit locks instead of aborting (uncovered reads still abort), the
// contention manager escalates after its abort budget, and the store's
// multi-key writes (puts and adds share one path) and snapshot reads ride
// the layer without losing updates.
#include "txn/txn.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "elastic/directory_manager.hpp"
#include "load/generator.hpp"
#include "shard/client.hpp"
#include "shard/sharded_store.hpp"
#include "simkern/assert.hpp"
#include "sync/gwc_lock.hpp"
#include "txn/contention.hpp"
#include "txn/orec.hpp"

namespace optsync::txn {
namespace {

// One site over one 8-node group; payload vars x/y/z sit on stripes
// 0/1/2 by convention (the caller owns the stripe mapping, like the
// sharded store's slot == stripe rule). With `nlocks` > 1 the site has one
// lock per stripe up to nlocks (stripe_lock_index), and each payload var
// is guarded by its stripe's lock.
struct Fixture {
  explicit Fixture(std::size_t nlocks = 1)
      : topo(net::MeshTorus2D::near_square(8)),
        sys(sched, topo, dsm::DsmConfig{}) {
    g = sys.create_group({0, 1, 2, 3, 4, 5, 6, 7}, 0);
    for (std::size_t i = 0; i < nlocks; ++i) {
      locks.push_back(sys.define_lock("site.lock" + std::to_string(i), g));
    }
    for (std::size_t i = 0; i < nlocks; ++i) {
      vers.push_back(sys.define_mutex_data("site.ver" + std::to_string(i), g,
                                           locks[i], 0));
    }
    lock = locks[0];
    ver = vers[0];
    const auto guard = [&](std::uint32_t stripe) {
      return locks[stripe_lock_index(stripe, nlocks)];
    };
    x = sys.define_mutex_data("x", g, guard(0), 0);
    y = sys.define_mutex_data("y", g, guard(1), 0);
    z = sys.define_mutex_data("z", g, guard(2), 0);
    TxnConfig cfg;
    cfg.orec_stripes = 4;
    mgr = std::make_unique<TxnManager>(sys, cfg);
    site = mgr->add_site("site", g, locks, vers);
  }
  sim::Scheduler sched;
  net::MeshTorus2D topo;
  dsm::DsmSystem sys;
  dsm::GroupId g = 0;
  std::vector<dsm::VarId> locks, vers;
  dsm::VarId lock = 0, ver = 0, x = 0, y = 0, z = 0;
  std::unique_ptr<TxnManager> mgr;
  SiteId site = 0;
};

// Coroutine lambdas in this file are named and called in a second
// statement, so their closures (which hold the [&] captures) outlive the
// processes that resume inside them.

// A conflicting committed write from `n`: takes the site lock, publishes
// `value` into `v`, bumps the stripe's orec — what any non-transactional
// writer (e.g. a single-key put) does.
sim::Process foreign_commit(Fixture& f, dsm::NodeId n, dsm::VarId v,
                            std::uint32_t stripe, dsm::Word value) {
  sync::GwcQueueLock lk(f.sys, f.lock);
  co_await lk.acquire(n).join();
  f.sys.node(n).write(v, value);
  f.mgr->orecs().bump(n, f.site, stripe);
  lk.release(n);
}

// A committed write to some other variable of `stripe`: bumps the
// stripe's orec under its lock without touching any variable a test
// transaction reads or writes, so no clobber interrupt fires.
sim::Process foreign_bump(Fixture& f, dsm::NodeId n, std::uint32_t stripe) {
  sync::GwcQueueLock lk(
      f.sys, f.locks[stripe_lock_index(stripe, f.locks.size())]);
  co_await lk.acquire(n).join();
  f.mgr->orecs().bump(n, f.site, stripe);
  lk.release(n);
}

// ------------------------------------------------------------------ orec ---

TEST(OrecTable, VersionsStartAtZeroAndBumpPropagates) {
  Fixture f;
  auto& orecs = f.mgr->orecs();
  ASSERT_EQ(orecs.stripes(), 4u);
  for (std::uint32_t k = 0; k < 4; ++k) {
    EXPECT_EQ(orecs.version(3, f.site, k), 0);
  }
  auto p = foreign_commit(f, 2, f.x, 0, 11);
  f.sched.run();
  p.rethrow_if_failed();
  // The bump rode the root's frames to every member.
  for (dsm::NodeId n = 0; n < 8; ++n) {
    EXPECT_EQ(orecs.version(n, f.site, 0), 1) << "node " << n;
    EXPECT_EQ(orecs.version(n, f.site, 1), 0) << "node " << n;
  }
}

TEST(OrecTable, StripeOfIsStableAndInRange) {
  Fixture f;
  auto& orecs = f.mgr->orecs();
  for (std::uint64_t k = 1; k < 200; ++k) {
    const auto s = orecs.stripe_of(k);
    EXPECT_LT(s, orecs.stripes());
    EXPECT_EQ(s, orecs.stripe_of(k));
  }
}

// ------------------------------------------------------------ speculation ---

TEST(TxnManager, SpeculativeWritesStayLocalUntilCommit) {
  Fixture f;
  bool mid_checked = false;
  auto p_body = [&]() -> sim::Process {
    Txn t;
    f.mgr->begin(t, 1);
    f.mgr->write_word(t, f.site, 0, f.x, 42);
    // Read-your-writes locally; no other replica has seen anything.
    EXPECT_EQ(f.mgr->read_word(t, f.site, 0, f.x), 42);
    EXPECT_EQ(f.sys.node(2).read(f.x), 0);
    mid_checked = true;
    TxnManager::CommitResult res;
    co_await f.mgr->commit(t, &res).join();
    EXPECT_TRUE(res.committed);
  };
  auto p = p_body();
  f.sched.run();
  p.rethrow_if_failed();
  EXPECT_TRUE(mid_checked);
  for (dsm::NodeId n = 0; n < 8; ++n) {
    EXPECT_EQ(f.sys.node(n).read(f.x), 42) << "node " << n;
    EXPECT_EQ(f.mgr->orecs().version(n, f.site, 0), 1) << "node " << n;
    EXPECT_EQ(f.sys.node(n).read(f.ver), 1) << "node " << n;
  }
  EXPECT_EQ(f.mgr->commits(), 1u);
  EXPECT_EQ(f.mgr->aborts(), 0u);
}

TEST(TxnManager, AbortRestoresExactBytes) {
  Fixture f;
  // Establish non-zero committed state first.
  auto setup_body = [&]() -> sim::Process {
    Txn t;
    f.mgr->begin(t, 0);
    f.mgr->write_word(t, f.site, 0, f.x, 7);
    f.mgr->write_word(t, f.site, 1, f.y, 9);
    TxnManager::CommitResult res;
    co_await f.mgr->commit(t, &res).join();
    EXPECT_TRUE(res.committed);
  };
  auto setup = setup_body();
  f.sched.run();
  setup.rethrow_if_failed();

  auto p_body = [&]() -> sim::Process {
    Txn t;
    f.mgr->begin(t, 3);
    f.mgr->write_word(t, f.site, 0, f.x, 100);
    f.mgr->write_word(t, f.site, 1, f.y, 200);
    f.mgr->write_word(t, f.site, 1, f.y, 201);  // overwrite: one undo entry
    EXPECT_EQ(f.sys.node(3).read(f.x), 100);
    EXPECT_EQ(f.sys.node(3).read(f.y), 201);
    co_await f.mgr->abort(t).join();
  };
  auto p = p_body();
  f.sched.run();
  p.rethrow_if_failed();
  // Exact pre-images restored locally; nothing ever left the node.
  for (dsm::NodeId n = 0; n < 8; ++n) {
    EXPECT_EQ(f.sys.node(n).read(f.x), 7) << "node " << n;
    EXPECT_EQ(f.sys.node(n).read(f.y), 9) << "node " << n;
  }
  EXPECT_EQ(f.mgr->aborts(), 1u);
  // The ledger saw exactly the one committed transaction.
  EXPECT_EQ(f.sys.node(0).read(f.ver), 1);
}

// ------------------------------------------------------------- validation ---

TEST(TxnManager, ReadSetValidationCatchesConflictingCommit) {
  Fixture f;
  auto reader_body = [&]() -> sim::Process {
    Txn t;
    f.mgr->begin(t, 1);
    // Read x (stripe 0), then speculate on y (stripe 1) while a foreign
    // commit bumps stripe 0.
    const dsm::Word seen = f.mgr->read_word(t, f.site, 0, f.x);
    EXPECT_EQ(seen, 0);
    f.mgr->write_word(t, f.site, 1, f.y, seen + 1);
    co_await sim::delay(f.sched, 300'000);  // let the writer commit
    TxnManager::CommitResult res;
    co_await f.mgr->commit(t, &res).join();
    EXPECT_FALSE(res.committed);
    EXPECT_TRUE(res.validation_failed);
  };
  auto reader = reader_body();
  auto writer_body = [&]() -> sim::Process {
    co_await sim::delay(f.sched, 10'000);
    co_await foreign_commit(f, 2, f.x, 0, 55).join();
  };
  auto writer = writer_body();
  f.sched.run();
  reader.rethrow_if_failed();
  writer.rethrow_if_failed();
  EXPECT_EQ(f.mgr->validation_failures(), 1u);
  EXPECT_EQ(f.mgr->aborts(), 1u);
  // y's speculative value was rolled back everywhere it existed (node 1).
  for (dsm::NodeId n = 0; n < 8; ++n) {
    EXPECT_EQ(f.sys.node(n).read(f.x), 55) << "node " << n;
    EXPECT_EQ(f.sys.node(n).read(f.y), 0) << "node " << n;
  }
}

TEST(TxnManager, BlindWriteSurvivesClobberAndCommitsOverIt) {
  // Write-write race, no read: a foreign commit clobbers the write-set
  // variable mid-speculation, but a blind writer is NOT doomed — its
  // commit republishes the whole write-set under the site lock, which
  // orders the race (foreign first, ours second) and stays serializable.
  Fixture f;
  auto spec_body = [&]() -> sim::Process {
    Txn t;
    f.mgr->begin(t, 1);
    f.mgr->write_word(t, f.site, 0, f.x, 100);  // arms the clobber interrupt
    co_await sim::delay(f.sched, 300'000);  // foreign commit lands meanwhile
    EXPECT_FALSE(t.doomed);
    // Read-your-own-writes: the local replica now holds the foreign 55,
    // but the transaction still sees its own pending 100.
    EXPECT_EQ(f.mgr->read_word(t, f.site, 0, f.x), 100);
    TxnManager::CommitResult res;
    co_await f.mgr->commit(t, &res).join();
    EXPECT_TRUE(res.committed);
  };
  auto spec = spec_body();
  auto writer_body = [&]() -> sim::Process {
    co_await sim::delay(f.sched, 10'000);
    co_await foreign_commit(f, 2, f.x, 0, 55).join();
  };
  auto writer = writer_body();
  f.sched.run();
  spec.rethrow_if_failed();
  writer.rethrow_if_failed();
  EXPECT_GE(f.mgr->clobbers_observed(), 1u);
  // Our commit is the later one in the site's serial order: 100 wins.
  for (dsm::NodeId n = 0; n < 8; ++n) {
    EXPECT_EQ(f.sys.node(n).read(f.x), 100) << "node " << n;
  }
  // Both the foreign writer and our commit bumped the stripe orec; only
  // our transactional commit bumps the ledger.
  EXPECT_EQ(f.sys.node(0).read(f.ver), 1);
  EXPECT_EQ(f.mgr->orecs().version(0, f.site, 0), 2);
}

TEST(TxnManager, ReadSetClobberDoomsAndAbortKeepsForeignValue) {
  // The same race, but the transaction READ the stripe first: its
  // speculation is built on superseded state, so the clobber dooms it,
  // the commit path aborts without acquiring any lock, and the rollback
  // converges the local replica on the foreign committed value.
  Fixture f;
  auto spec_body = [&]() -> sim::Process {
    Txn t;
    f.mgr->begin(t, 1);
    const dsm::Word seen = f.mgr->read_word(t, f.site, 0, f.x);
    f.mgr->write_word(t, f.site, 0, f.x, seen + 100);
    co_await sim::delay(f.sched, 300'000);  // foreign commit lands meanwhile
    EXPECT_TRUE(t.doomed);
    TxnManager::CommitResult res;
    co_await f.mgr->commit(t, &res).join();
    EXPECT_FALSE(res.committed);
    EXPECT_TRUE(res.doomed_at_commit);
  };
  auto spec = spec_body();
  auto writer_body = [&]() -> sim::Process {
    co_await sim::delay(f.sched, 10'000);
    co_await foreign_commit(f, 2, f.x, 0, 55).join();
  };
  auto writer = writer_body();
  f.sched.run();
  spec.rethrow_if_failed();
  writer.rethrow_if_failed();
  EXPECT_GE(f.mgr->clobbers_observed(), 1u);
  // The abort did NOT restore node 1's pre-image over the foreign value:
  // every replica converged on the committed 55.
  for (dsm::NodeId n = 0; n < 8; ++n) {
    EXPECT_EQ(f.sys.node(n).read(f.x), 55) << "node " << n;
  }
  EXPECT_EQ(f.sys.node(0).read(f.ver), 0);  // no transactional commit
}

// ----------------------------------------------------------------- repair ---

// What a repair step saw: the stale stripes it was handed, when it ran,
// and the committed value of x it re-ran against.
struct RepairLog {
  int calls = 0;
  std::vector<StripeRef> stale;
  sim::Time at = 0;
  dsm::Word committed_x = -1;
};

// The body "x += 100 on stripe 0, y += 1 on stripe 1" as a repair step:
// re-runs only the stale stripes' share, charged 500 ns per stripe.
Txn::RepairFn add_repair(Fixture& f, RepairLog* log) {
  return [&f, log](Txn& t, const std::vector<StripeRef>& stale) {
    ++log->calls;
    log->stale = stale;
    log->at = f.sched.now();
    log->committed_x = f.mgr->committed_word(t, f.x);
    for (const auto& [site, stripe] : stale) {
      if (stripe == 0) {
        f.mgr->write_word(t, site, 0, f.x,
                          f.mgr->read_word(t, site, 0, f.x) + 100);
      } else if (stripe == 1) {
        f.mgr->write_word(t, site, 1, f.y,
                          f.mgr->read_word(t, site, 1, f.y) + 1);
      }
    }
    return static_cast<sim::Duration>(500 * stale.size());
  };
}

TEST(TxnRepair, CoveredClobberRepairsUnderTheCommitLocks) {
  // The read-set clobber race of ReadSetClobberDooms..., but the
  // transaction carries a repair step: the clobber on stripe 0 (read AND
  // written — covered) only marks it stale, and commit re-runs stripe 0's
  // share against the foreign 55 once it holds the lock. Stripe 1 was not
  // touched, so it is not re-run.
  Fixture f;
  RepairLog log;
  TxnManager::CommitResult res;
  auto spec_body = [&]() -> sim::Process {
    Txn t;
    f.mgr->begin(t, 1);
    t.repair = add_repair(f, &log);
    f.mgr->write_word(t, f.site, 0, f.x,
                      f.mgr->read_word(t, f.site, 0, f.x) + 100);
    f.mgr->write_word(t, f.site, 1, f.y,
                      f.mgr->read_word(t, f.site, 1, f.y) + 1);
    co_await sim::delay(f.sched, 300'000);  // foreign commit lands meanwhile
    EXPECT_FALSE(t.doomed);
    EXPECT_EQ(t.stale.size(), 1u);
    co_await f.mgr->commit(t, &res).join();
  };
  auto spec = spec_body();
  auto writer_body = [&]() -> sim::Process {
    co_await sim::delay(f.sched, 10'000);
    co_await foreign_commit(f, 2, f.x, 0, 55).join();
  };
  auto writer = writer_body();
  f.sched.run();
  spec.rethrow_if_failed();
  writer.rethrow_if_failed();
  EXPECT_TRUE(res.committed);
  EXPECT_FALSE(res.doomed_at_commit);
  EXPECT_FALSE(res.validation_failed);
  EXPECT_EQ(res.repaired_stripes, 1u);
  ASSERT_EQ(log.calls, 1);
  EXPECT_EQ(log.stale, (std::vector<StripeRef>{{f.site, 0}}));
  EXPECT_GE(log.at, res.locks_acquired_at);
  EXPECT_GT(res.locks_acquired_at, 0u);
  EXPECT_EQ(log.committed_x, 55);
  // Published: the authoritative value plus the transaction's effect.
  for (dsm::NodeId n = 0; n < 8; ++n) {
    EXPECT_EQ(f.sys.node(n).read(f.x), 155) << "node " << n;
    EXPECT_EQ(f.sys.node(n).read(f.y), 1) << "node " << n;
    EXPECT_EQ(f.mgr->orecs().version(n, f.site, 0), 2) << "node " << n;
  }
  EXPECT_EQ(f.mgr->repairs(), 1u);
  EXPECT_EQ(f.mgr->aborts(), 0u);
  EXPECT_EQ(f.mgr->commits(), 1u);
  EXPECT_GE(f.mgr->clobbers_observed(), 1u);
  EXPECT_EQ(f.sys.node(0).read(f.ver), 1);  // the ledger saw one commit
}

TEST(TxnRepair, MovedOrecOnCoveredStripeRepairsAtValidation) {
  // No clobber interrupt at all: a commit to another variable of stripe 0
  // only moves its orec. Under the commit lock that is a repairable
  // conflict, not a validation failure.
  Fixture f;
  RepairLog log;
  TxnManager::CommitResult res;
  auto spec_body = [&]() -> sim::Process {
    Txn t;
    f.mgr->begin(t, 1);
    t.repair = add_repair(f, &log);
    f.mgr->write_word(t, f.site, 0, f.x,
                      f.mgr->read_word(t, f.site, 0, f.x) + 100);
    co_await sim::delay(f.sched, 300'000);
    EXPECT_TRUE(t.stale.empty());
    co_await f.mgr->commit(t, &res).join();
  };
  auto spec = spec_body();
  auto writer_body = [&]() -> sim::Process {
    co_await sim::delay(f.sched, 10'000);
    co_await foreign_bump(f, 2, 0).join();
  };
  auto writer = writer_body();
  f.sched.run();
  spec.rethrow_if_failed();
  writer.rethrow_if_failed();
  EXPECT_TRUE(res.committed);
  EXPECT_EQ(res.repaired_stripes, 1u);
  EXPECT_EQ(log.calls, 1);
  EXPECT_EQ(f.mgr->clobbers_observed(), 0u);
  EXPECT_EQ(f.mgr->validation_failures(), 0u);
  for (dsm::NodeId n = 0; n < 8; ++n) {
    EXPECT_EQ(f.sys.node(n).read(f.x), 100) << "node " << n;
  }
}

TEST(TxnRepair, ClobberOnReadOnlyStripeStillDooms) {
  // The transaction reads x (stripe 0) but writes only y (stripe 1):
  // stripe 0 is uncovered, so a repair step cannot fix it. The clobber on
  // the read-only variable dooms the transaction at encounter time and
  // commit aborts without taking a lock — a read-set-clobber abort.
  Fixture f;
  RepairLog log;
  TxnManager::CommitResult res;
  auto spec_body = [&]() -> sim::Process {
    Txn t;
    f.mgr->begin(t, 1);
    t.repair = add_repair(f, &log);
    f.mgr->write_word(t, f.site, 1, f.y,
                      f.mgr->read_word(t, f.site, 0, f.x) + 1);
    co_await sim::delay(f.sched, 300'000);
    EXPECT_TRUE(t.doomed);
    EXPECT_TRUE(t.stale.empty());
    co_await f.mgr->commit(t, &res).join();
  };
  auto spec = spec_body();
  auto writer_body = [&]() -> sim::Process {
    co_await sim::delay(f.sched, 10'000);
    co_await foreign_commit(f, 2, f.x, 0, 55).join();
  };
  auto writer = writer_body();
  f.sched.run();
  spec.rethrow_if_failed();
  writer.rethrow_if_failed();
  EXPECT_FALSE(res.committed);
  EXPECT_TRUE(res.doomed_at_commit);
  EXPECT_FALSE(res.validation_failed);
  EXPECT_EQ(res.locks_acquired_at, 0u);
  ASSERT_TRUE(res.has_conflict);
  EXPECT_EQ(res.conflict_stripe, 0u);
  EXPECT_EQ(res.conflict_origin, 2u);
  EXPECT_EQ(log.calls, 0);
  EXPECT_EQ(f.mgr->repairs(), 0u);
  EXPECT_EQ(f.mgr->aborts(), 1u);
  for (dsm::NodeId n = 0; n < 8; ++n) {
    EXPECT_EQ(f.sys.node(n).read(f.x), 55) << "node " << n;
    EXPECT_EQ(f.sys.node(n).read(f.y), 0) << "node " << n;
    // The read-only arm was taken down with the transaction.
    EXPECT_FALSE(f.sys.node(n).interrupt_armed(f.x)) << "node " << n;
  }
}

TEST(TxnRepair, MovedOrecOnUnlockedReadStripeFailsValidation) {
  // One lock per stripe: the transaction reads x (stripe 0, lock 0) and
  // writes y (stripe 1, lock 1), so its commit never holds lock 0. A
  // commit elsewhere on stripe 0 moves the orec without touching x: no
  // interrupt, and the uncovered entry fails validation as before.
  Fixture f(2);
  RepairLog log;
  TxnManager::CommitResult res;
  auto spec_body = [&]() -> sim::Process {
    Txn t;
    f.mgr->begin(t, 1);
    t.repair = add_repair(f, &log);
    f.mgr->write_word(t, f.site, 1, f.y,
                      f.mgr->read_word(t, f.site, 0, f.x) + 1);
    co_await sim::delay(f.sched, 300'000);
    EXPECT_FALSE(t.doomed);
    co_await f.mgr->commit(t, &res).join();
  };
  auto spec = spec_body();
  auto writer_body = [&]() -> sim::Process {
    co_await sim::delay(f.sched, 10'000);
    co_await foreign_bump(f, 2, 0).join();
  };
  auto writer = writer_body();
  f.sched.run();
  spec.rethrow_if_failed();
  writer.rethrow_if_failed();
  EXPECT_FALSE(res.committed);
  EXPECT_TRUE(res.validation_failed);
  EXPECT_FALSE(res.doomed_at_commit);
  EXPECT_GT(res.locks_acquired_at, 0u);
  ASSERT_TRUE(res.has_conflict);
  EXPECT_EQ(res.conflict_stripe, 0u);
  EXPECT_EQ(res.repaired_stripes, 0u);
  EXPECT_EQ(log.calls, 0);
  EXPECT_EQ(f.mgr->validation_failures(), 1u);
  EXPECT_EQ(f.mgr->repairs(), 0u);
  for (dsm::NodeId n = 0; n < 8; ++n) {
    EXPECT_EQ(f.sys.node(n).read(f.y), 0) << "node " << n;
  }
}

TEST(TxnRepair, WithoutARepairStepCoveredClobberStillDooms) {
  // The race of CoveredClobberRepairsUnderTheCommitLocks with no repair
  // step: exactly today's doom-and-abort, with none of the repair state
  // touched (no stale stripes, no read-only arms, no repair counted).
  Fixture f;
  TxnManager::CommitResult res;
  auto spec_body = [&]() -> sim::Process {
    Txn t;
    f.mgr->begin(t, 1);
    const dsm::Word seen = f.mgr->read_word(t, f.site, 1, f.y);
    EXPECT_FALSE(f.sys.node(1).interrupt_armed(f.y));
    f.mgr->write_word(t, f.site, 0, f.x,
                      f.mgr->read_word(t, f.site, 0, f.x) + 100 + seen);
    co_await sim::delay(f.sched, 300'000);
    EXPECT_TRUE(t.doomed);
    EXPECT_TRUE(t.stale.empty());
    EXPECT_TRUE(t.watched.empty());
    co_await f.mgr->commit(t, &res).join();
  };
  auto spec = spec_body();
  auto writer_body = [&]() -> sim::Process {
    co_await sim::delay(f.sched, 10'000);
    co_await foreign_commit(f, 2, f.x, 0, 55).join();
  };
  auto writer = writer_body();
  f.sched.run();
  spec.rethrow_if_failed();
  writer.rethrow_if_failed();
  EXPECT_FALSE(res.committed);
  EXPECT_TRUE(res.doomed_at_commit);
  EXPECT_EQ(res.locks_acquired_at, 0u);
  EXPECT_EQ(res.repaired_stripes, 0u);
  EXPECT_EQ(f.mgr->repairs(), 0u);
  EXPECT_EQ(f.mgr->aborts(), 1u);
  for (dsm::NodeId n = 0; n < 8; ++n) {
    EXPECT_EQ(f.sys.node(n).read(f.x), 55) << "node " << n;
  }
  EXPECT_EQ(f.sys.node(0).read(f.ver), 0);
}

// ------------------------------------------------------------- contention ---

TEST(ContentionManager, BackoffDoublesToCapAndEscalates) {
  Fixture f;
  ContentionConfig cfg;
  cfg.max_aborts = 4;
  cfg.backoff_base_ns = 2'000;
  cfg.backoff_cap_ns = 64'000;
  ContentionManager cm(f.sys, cfg);
  EXPECT_EQ(cm.base_delay(1), 2'000u);
  EXPECT_EQ(cm.base_delay(2), 4'000u);
  EXPECT_EQ(cm.base_delay(3), 8'000u);
  EXPECT_EQ(cm.base_delay(10), 64'000u);  // capped
  EXPECT_FALSE(cm.should_fallback(0));
  EXPECT_FALSE(cm.should_fallback(3));
  EXPECT_TRUE(cm.should_fallback(4));
  EXPECT_TRUE(cm.should_fallback(9));
}

TEST(ContentionManager, JitteredBackoffIsDeterministicPerSeed) {
  auto run_once = [] {
    Fixture f;
    ContentionConfig cfg;
    cfg.seed = 99;
    ContentionManager cm(f.sys, cfg);
    auto p_body = [&]() -> sim::Process {
      for (std::uint32_t k = 1; k <= 5; ++k) {
        co_await cm.backoff(4, k).join();
      }
    };
    auto p = p_body();
    f.sched.run();
    p.rethrow_if_failed();
    EXPECT_EQ(cm.backoffs(), 5u);
    return cm.total_backoff_ns();
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
  EXPECT_GT(a, 0u);
  // Jitter keeps each delay within [base/2, base].
  EXPECT_LE(a, 2'000u + 4'000u + 8'000u + 16'000u + 32'000u);
  EXPECT_GE(a, (2'000u + 4'000u + 8'000u + 16'000u + 32'000u) / 2);
}

// ------------------------------------------------- store-level transactions ---

struct StoreFixture {
  explicit StoreFixture(shard::ShardedStoreConfig scfg = {})
      : topo(net::MeshTorus2D::near_square(8)),
        sys(sched, topo, dsm::DsmConfig{}),
        store(sys, scfg),
        client(store) {}
  sim::Scheduler sched;
  net::MeshTorus2D topo;
  dsm::DsmSystem sys;
  shard::ShardedStore store;
  shard::Client client;
};

std::optional<dsm::Word> read_now(StoreFixture& f, dsm::NodeId n,
                                  shard::Key k) {
  std::optional<dsm::Word> out;
  auto p = f.client.read(n, k, &out);
  EXPECT_TRUE(p.done());
  return out;
}

TEST(StoreTxn, SingleKeyPutBumpsItsOrecStripe) {
  StoreFixture f;
  auto p = f.client.write(1, 17, 1234);
  f.sched.run();
  p.rethrow_if_failed();
  const auto s = f.store.shard_of(17);
  auto& orecs = f.store.txn_manager().orecs();
  std::uint64_t bumped = 0;
  for (std::uint32_t k = 0; k < orecs.stripes(); ++k) {
    bumped += static_cast<std::uint64_t>(
        orecs.version(0, static_cast<SiteId>(s), k));
  }
  EXPECT_EQ(bumped, 1u);
}

TEST(StoreTxn, MultiRmwHasNoLostUpdates) {
  // The YCSB-F torture case: every node increments the same two keys.
  // Any lost update would break the final sums; any ledger drift would
  // break serializability.
  StoreFixture f;
  const std::vector<shard::Key> keys{5, 6};
  constexpr int kRounds = 5;
  auto worker = [&](dsm::NodeId n) -> sim::Process {
    for (int k = 0; k < kRounds; ++k) {
      shard::TxnRequest req;
      req.adds = keys;
      req.delta = 1;
      co_await f.client.txn(n, std::move(req)).join();
    }
  };
  std::vector<sim::Process> procs;
  for (dsm::NodeId n = 0; n < 8; ++n) procs.push_back(worker(n));
  f.sched.run();
  for (auto& p : procs) p.rethrow_if_failed();
  const auto expect = static_cast<dsm::Word>(8 * kRounds);
  for (dsm::NodeId n = 0; n < 8; ++n) {
    EXPECT_EQ(read_now(f, n, 5).value_or(-1), expect) << "node " << n;
    EXPECT_EQ(read_now(f, n, 6).value_or(-1), expect) << "node " << n;
  }
  EXPECT_TRUE(f.store.replicas_converged());
  stats::ServiceReport report;
  f.store.fill_report(report);
  EXPECT_TRUE(report.serializable());
  // Eight nodes hammering two keys must collide. Every rmw reads only
  // stripes it writes, so each collision is repaired under the commit
  // locks — never aborted — and the sums above stay exact.
  EXPECT_GT(f.store.txn_manager().repairs(), 0u);
  EXPECT_EQ(f.store.txn_manager().aborts(), 0u);
  std::uint64_t shard_repairs = 0;
  for (const auto& s : report.shards) shard_repairs += s.txn_repairs;
  EXPECT_GT(shard_repairs, 0u);
}

TEST(StoreTxn, MultiGetReturnsCommittedSnapshot) {
  StoreFixture f;
  auto setup_body = [&]() -> sim::Process {
    shard::TxnRequest req;
    req.puts = {{10, 111}, {11, 222}};
    co_await f.client.txn(0, std::move(req)).join();
  };
  auto setup = setup_body();
  f.sched.run();
  setup.rethrow_if_failed();

  shard::TxnRequest req;
  req.reads = {10, 11, 12};
  shard::TxnResult res;
  auto p = f.client.txn(3, std::move(req), &res);
  f.sched.run();
  p.rethrow_if_failed();
  ASSERT_EQ(res.values.size(), 3u);
  EXPECT_EQ(res.values[0].value_or(-1), 111);
  EXPECT_EQ(res.values[1].value_or(-1), 222);
  EXPECT_FALSE(res.values[2].has_value());  // never written
}

// Puts, adds and snapshot reads run under OCC, under legacy, and under OCC
// with a zero abort budget, where every multi-key op escalates to the
// locked path at once. The keys sit on distinct (shard, slot) stripes, so
// the final state is a function of the ops alone, whatever the
// interleaving: every config must end with the same value per key, and
// those values must be each worker's last put and the exact add sums.
TEST(StoreTxn, OccAndLegacyAgreeOnFinalState) {
  constexpr int kWorkers = 4;
  constexpr int kRounds = 6;
  constexpr std::uint64_t kOps = 3 * kWorkers * kRounds;  // put, add, read
  constexpr std::size_t kAddKeys = 6;
  shard::ShardedStoreConfig base;
  base.shards = 4;
  base.slots_per_shard = 16;
  // Two put keys per worker (keys[2n], keys[2n+1]), then the shared add
  // keys, each on a stripe of its own.
  std::vector<shard::Key> keys;
  {
    StoreFixture probe(base);
    std::set<std::pair<shard::ShardId, std::size_t>> stripes;
    for (shard::Key k = 1; keys.size() < 2 * kWorkers + kAddKeys; ++k) {
      if (stripes.emplace(probe.store.shard_of(k), probe.store.slot_of(k))
              .second) {
        keys.push_back(k);
      }
    }
  }
  const auto put_key = [&](int n, int i) { return keys[2 * n + i]; };
  const auto add_key = [&](int i) {
    return keys[2 * kWorkers + static_cast<std::size_t>(i) % kAddKeys];
  };
  const auto put_value = [](int n, int k, int i) {
    return static_cast<dsm::Word>(1000 * n + 100 * i + k);
  };
  std::map<shard::Key, dsm::Word> expected;
  for (int n = 0; n < kWorkers; ++n) {
    for (int i = 0; i < 2; ++i) {
      expected[put_key(n, i)] = put_value(n, kRounds - 1, i);
    }
    for (int k = 0; k < kRounds; ++k) {
      expected[add_key(n + k)] += n + 1;
      expected[add_key(n + k + 1)] += n + 1;
    }
  }
  const dsm::Word add_total = 2 * kRounds * kWorkers * (kWorkers + 1) / 2;

  auto run_config = [&](shard::TxnMode mode, std::uint32_t max_aborts) {
    shard::ShardedStoreConfig scfg = base;
    scfg.txn.mode = mode;
    scfg.txn.tuning.contention.max_aborts = max_aborts;
    StoreFixture f(scfg);
    std::uint64_t op_shards = 0;  // sum of involved shards over the ops
    auto count = [&](const std::vector<shard::Key>& ks) {
      std::set<shard::ShardId> ids;
      for (const shard::Key k : ks) ids.insert(f.store.shard_of(k));
      op_shards += ids.size();
    };
    auto worker = [&](int n) -> sim::Process {
      const auto node = static_cast<dsm::NodeId>(n);
      for (int k = 0; k < kRounds; ++k) {
        shard::TxnRequest put;
        put.puts = {{put_key(n, 0), put_value(n, k, 0)},
                    {put_key(n, 1), put_value(n, k, 1)}};
        count({put_key(n, 0), put_key(n, 1)});
        co_await f.client.txn(node, std::move(put)).join();

        shard::TxnRequest add;
        add.adds = {add_key(n + k), add_key(n + k + 1)};
        add.delta = n + 1;
        count(add.adds);
        co_await f.client.txn(node, std::move(add)).join();

        shard::TxnRequest read;
        read.reads = {put_key(n, 0), put_key(n, 1), add_key(n + k)};
        count(read.reads);
        shard::TxnResult res;
        co_await f.client
            .txn(node, std::move(read), &res,
                 {shard::ConsistencyLevel::kSnapshot})
            .join();
        // Only this worker writes its put keys: it reads its own last put.
        EXPECT_EQ(res.values.at(0).value_or(-1), put_value(n, k, 0));
        EXPECT_EQ(res.values.at(1).value_or(-1), put_value(n, k, 1));
        const dsm::Word sum = res.values.at(2).value_or(-1);
        EXPECT_GE(sum, n + 1);  // this worker's own add is in
        EXPECT_LE(sum, add_total);
      }
    };
    std::vector<sim::Process> procs;
    for (int n = 0; n < kWorkers; ++n) procs.push_back(worker(n));
    f.sched.run();
    for (auto& p : procs) p.rethrow_if_failed();
    EXPECT_TRUE(f.store.replicas_converged());
    stats::ServiceReport report;
    f.store.fill_report(report);
    EXPECT_TRUE(report.serializable());
    std::uint64_t fallbacks = 0;
    std::uint64_t commits = 0;
    for (shard::ShardId s = 0; s < f.store.shards(); ++s) {
      fallbacks += f.store.txn_fallbacks(s);
      commits += f.store.txn_commits(s);
    }
    if (mode == shard::TxnMode::kOcc && max_aborts > 0) {
      EXPECT_GT(commits, 0u);  // the OCC run really speculated
    }
    if (mode == shard::TxnMode::kOcc && max_aborts == 0) {
      // Every multi-key op, of every class, took the locked path once.
      EXPECT_EQ(f.store.txn_manager().contention().fallbacks_signalled(),
                kOps);
      EXPECT_EQ(fallbacks, op_shards);
      EXPECT_EQ(commits, 0u);
    }
    std::map<shard::Key, dsm::Word> final_state;
    for (const shard::Key k : keys) {
      final_state[k] = read_now(f, 0, k).value_or(-1);
    }
    return final_state;
  };
  const std::uint32_t budget = base.txn.tuning.contention.max_aborts;
  const auto occ = run_config(shard::TxnMode::kOcc, budget);
  const auto legacy = run_config(shard::TxnMode::kLegacy, budget);
  const auto locked = run_config(shard::TxnMode::kOcc, 0);
  EXPECT_EQ(occ, expected);
  EXPECT_EQ(legacy, expected);
  EXPECT_EQ(locked, expected);
}

TEST(StoreTxn, AbortBudgetEscalatesToIrrevocableFallback) {
  // Repairs absorb rmw-on-rmw conflicts, so the abort path is driven by
  // what still aborts an rmw: a directory move. Each rmw observes its
  // shards' directory stripe without writing it (uncovered), so a hot-key
  // promotion or demotion racing the rmws fails their validation, and
  // with a budget of one abort the retry escalates to the fallback. The
  // moves run on the control node (the last member, node 7), which
  // carries no rmw traffic: six workers of eight rounds keep the sum 48.
  shard::ShardedStoreConfig scfg;
  scfg.txn.tuning.contention.max_aborts = 1;  // escalate after the first abort
  scfg.shards = 4;
  scfg.policy = shard::ShardMap::Policy::kRange;
  scfg.key_space = 64;
  scfg.slots_per_shard = 32;
  scfg.elastic.enabled = true;
  scfg.elastic.hot_groups = 2;
  StoreFixture f(scfg);
  elastic::DirectoryManager dir(f.store);
  const shard::ShardId hot = f.store.base_shards();
  const std::vector<shard::Key> keys{5, 6};
  int running = 6;
  auto worker = [&](dsm::NodeId n) -> sim::Process {
    for (int k = 0; k < 8; ++k) {
      shard::TxnRequest req;
      req.adds = keys;
      req.delta = 1;
      co_await f.client.txn(n, std::move(req)).join();
    }
    --running;
  };
  auto mover = [&]() -> sim::Process {
    while (running > 0) {
      co_await sim::delay(f.sched, 2'000);
      co_await dir.promote(5, hot).join();
      co_await sim::delay(f.sched, 2'000);
      co_await dir.demote(5).join();
    }
  };
  std::vector<sim::Process> procs;
  for (dsm::NodeId n = 0; n < 6; ++n) procs.push_back(worker(n));
  procs.push_back(mover());
  f.sched.run();
  for (auto& p : procs) p.rethrow_if_failed();
  // Still exact under escalation (a read may pay a stale-directory probe,
  // so each one runs the scheduler)...
  for (dsm::NodeId n = 0; n < 8; ++n) {
    std::optional<dsm::Word> out;
    auto p = f.client.read(n, 5, &out);
    f.sched.run();
    p.rethrow_if_failed();
    EXPECT_EQ(out.value_or(-1), 48) << "node " << n;
  }
  // ...and the budget of one abort forced at least one fallback.
  EXPECT_GT(f.store.txn_manager().contention().fallbacks_signalled(), 0u);
  std::uint64_t fallbacks = 0;
  std::uint64_t dir_aborts = 0;
  for (shard::ShardId s = 0; s < f.store.shards(); ++s) {
    fallbacks += f.store.txn_fallbacks(s);
    dir_aborts += f.store.aborts_dir_epoch(s);
  }
  EXPECT_GT(fallbacks, 0u);
  EXPECT_GT(dir_aborts, 0u);
}

}  // namespace
}  // namespace optsync::txn
