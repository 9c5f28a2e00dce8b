#include "dsm/root.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dsm/system.hpp"
#include "simkern/assert.hpp"

namespace optsync::dsm {
namespace {

class GroupRootTest : public ::testing::Test {
 protected:
  GroupRootTest() : topo_(5), sys_(sched_, topo_, DsmConfig{}) {
    group_ = sys_.create_group({0, 1, 2, 3, 4}, 2);
    lock_ = sys_.define_lock("l", group_);
    mdata_ = sys_.define_mutex_data("m", group_, lock_);
    data_ = sys_.define_data("d", group_);
  }

  GroupRoot& root() { return sys_.root_of(group_); }

  sim::Scheduler sched_;
  net::FullyConnected topo_;
  DsmSystem sys_;
  GroupId group_ = 0;
  VarId lock_ = 0, mdata_ = 0, data_ = 0;
};

TEST_F(GroupRootTest, LockStateOfUntouchedLockIsIdle) {
  // A lock nobody has ever requested has no entry in the root's map;
  // lock_state must hand back the idle state, not fault (stats readers and
  // the speculative-write filter both query locks that may never have been
  // written).
  const auto& ls = root().lock_state(lock_);
  EXPECT_EQ(ls.holder, kNoNode);
  EXPECT_EQ(ls.requests, 0u);
  EXPECT_TRUE(ls.queue.empty());
  // Same for a VarId that is not a lock at all.
  const auto& not_a_lock = root().lock_state(data_);
  EXPECT_EQ(not_a_lock.holder, kNoNode);
  EXPECT_EQ(not_a_lock.requests, 0u);
}

TEST_F(GroupRootTest, FreeLockGrantedImmediately) {
  sys_.node(3).write(lock_, lock_request_value(3));
  sched_.run();
  const auto& ls = root().lock_state(lock_);
  EXPECT_EQ(ls.holder, 3u);
  EXPECT_EQ(ls.requests, 1u);
  EXPECT_EQ(ls.immediate_grants, 1u);
  EXPECT_TRUE(ls.queue.empty());
  // Grant propagated to every member.
  for (NodeId n = 0; n < 5; ++n) {
    EXPECT_EQ(sys_.node(n).read(lock_), lock_grant_value(3));
  }
}

TEST_F(GroupRootTest, BusyLockQueuesRequester) {
  sys_.node(3).write(lock_, lock_request_value(3));
  sched_.run();
  sys_.node(1).write(lock_, lock_request_value(1));
  sched_.run();
  const auto& ls = root().lock_state(lock_);
  EXPECT_EQ(ls.holder, 3u);
  ASSERT_EQ(ls.queue.size(), 1u);
  EXPECT_EQ(ls.queue.front(), 1u);
  EXPECT_EQ(ls.max_queue_depth, 1u);
  // A queued request does NOT disturb anyone's lock copy.
  EXPECT_EQ(sys_.node(0).read(lock_), lock_grant_value(3));
}

TEST_F(GroupRootTest, ReleaseHandsToNextQueued) {
  sys_.node(3).write(lock_, lock_request_value(3));
  sched_.run();
  sys_.node(1).write(lock_, lock_request_value(1));
  sys_.node(4).write(lock_, lock_request_value(4));
  sched_.run();
  sys_.node(3).write(lock_, kLockFree);
  sched_.run();
  const auto& ls = root().lock_state(lock_);
  EXPECT_EQ(ls.holder, 1u);  // FIFO
  EXPECT_EQ(ls.queued_grants, 1u);
  EXPECT_EQ(sys_.node(0).read(lock_), lock_grant_value(1));
  sys_.node(1).write(lock_, kLockFree);
  sched_.run();
  EXPECT_EQ(root().lock_state(lock_).holder, 4u);
}

TEST_F(GroupRootTest, ReleaseWithEmptyQueuePropagatesFree) {
  sys_.node(3).write(lock_, lock_request_value(3));
  sched_.run();
  sys_.node(3).write(lock_, kLockFree);
  sched_.run();
  EXPECT_EQ(root().lock_state(lock_).holder, kNoNode);
  for (NodeId n = 0; n < 5; ++n) {
    EXPECT_EQ(sys_.node(n).read(lock_), kLockFree);
  }
}

TEST_F(GroupRootTest, ReleaseByNonHolderRejected) {
  sys_.node(3).write(lock_, lock_request_value(3));
  sched_.run();
  sys_.node(1).write(lock_, kLockFree);
  EXPECT_THROW(sched_.run(), ContractViolation);
}

TEST_F(GroupRootTest, NestedRequestRejected) {
  sys_.node(3).write(lock_, lock_request_value(3));
  sched_.run();
  sys_.node(3).write(lock_, lock_request_value(3));
  EXPECT_THROW(sched_.run(), ContractViolation);
}

TEST_F(GroupRootTest, SpeculativeWriteFromNonHolderDropped) {
  sys_.node(1).write(mdata_, 77);  // nobody holds the lock
  sched_.run();
  EXPECT_EQ(root().stats().speculative_drops, 1u);
  EXPECT_EQ(sys_.node(0).read(mdata_), 0);
  // The speculator's own local memory still shows its write (to be rolled
  // back by the mutex machinery).
  EXPECT_EQ(sys_.node(1).read(mdata_), 77);
}

TEST_F(GroupRootTest, HolderWritesPropagate) {
  sys_.node(1).write(lock_, lock_request_value(1));
  sched_.run();
  sys_.node(1).write(mdata_, 88);
  sched_.run();
  EXPECT_EQ(root().stats().speculative_drops, 0u);
  for (NodeId n = 0; n < 5; ++n) {
    if (n == 1) continue;  // writer's echo is HW-blocked
    EXPECT_EQ(sys_.node(n).read(mdata_), 88);
  }
}

TEST_F(GroupRootTest, FilteringCanBeDisabled) {
  DsmConfig cfg;
  cfg.root_filters_speculative = false;
  sim::Scheduler sched;
  DsmSystem sys(sched, topo_, cfg);
  const auto g = sys.create_group({0, 1, 2}, 0);
  const auto l = sys.define_lock("l", g);
  const auto m = sys.define_mutex_data("m", g, l);
  sys.node(1).write(m, 5);
  sched.run();
  EXPECT_EQ(sys.node(2).read(m), 5);
  EXPECT_EQ(sys.root_of(g).stats().speculative_drops, 0u);
}

TEST_F(GroupRootTest, PlainDataNeverFiltered) {
  sys_.node(1).write(data_, 13);
  sched_.run();
  EXPECT_EQ(root().stats().speculative_drops, 0u);
  EXPECT_EQ(sys_.node(4).read(data_), 13);
}

TEST_F(GroupRootTest, SequenceNumbersIncrease) {
  sys_.node(1).write(data_, 1);
  sys_.node(2).write(data_, 2);
  sched_.run();
  EXPECT_EQ(root().stats().sequenced, 2u);
  EXPECT_EQ(root().next_seq(), 3u);
}

TEST_F(GroupRootTest, GrantFollowsReleasersDataInGroupOrder) {
  // The paper's key handoff property: the holder's last data write reaches
  // every member BEFORE the next grant does.
  sys_.node(1).write(lock_, lock_request_value(1));
  sched_.run();
  sys_.node(3).write(lock_, lock_request_value(3));  // queued
  sched_.run();

  sys_.node(4).enable_applied_log(true);
  sys_.node(1).write(mdata_, 1234);  // last data write
  sys_.node(1).write(lock_, kLockFree);  // then release
  sched_.run();

  const auto& log = sys_.node(4).applied_log(group_);
  ASSERT_GE(log.size(), 2u);
  // Find positions of the data write and the grant-to-3.
  int data_pos = -1, grant_pos = -1;
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (log[i].var == mdata_ && log[i].value == 1234) {
      data_pos = static_cast<int>(i);
    }
    if (log[i].var == lock_ && log[i].value == lock_grant_value(3)) {
      grant_pos = static_cast<int>(i);
    }
  }
  ASSERT_NE(data_pos, -1);
  ASSERT_NE(grant_pos, -1);
  EXPECT_LT(data_pos, grant_pos);
}

// Lock sets: several stripe locks of one group requested in one message.
class LockSetTest : public ::testing::Test {
 protected:
  // Coalescing on, so "one frame per arrival" is observable (at the
  // default cap of 1 every sequenced write is its own frame).
  static DsmConfig coalescing() {
    DsmConfig c;
    c.coalesce_max_writes = 64;
    return c;
  }
  LockSetTest() : topo_(5), sys_(sched_, topo_, coalescing()) {
    group_ = sys_.create_group({0, 1, 2, 3, 4}, 2);
    for (int k = 0; k < 4; ++k) {
      locks_.push_back(sys_.define_lock("l" + std::to_string(k), group_));
    }
  }
  GroupRoot& root() { return sys_.root_of(group_); }
  NodeId holder(std::size_t k) { return root().lock_state(locks_[k]).holder; }

  sim::Scheduler sched_;
  net::FullyConnected topo_;
  DsmSystem sys_;
  GroupId group_ = 0;
  std::vector<VarId> locks_;
};

TEST_F(LockSetTest, LocksGetDenseIndicesPerGroup) {
  for (std::size_t k = 0; k < locks_.size(); ++k) {
    EXPECT_EQ(sys_.var(locks_[k]).lock_index, k);
  }
  EXPECT_EQ(sys_.lock_count(group_), 4u);
  const GroupId other = sys_.create_group({0, 1}, 0);
  EXPECT_EQ(sys_.var(sys_.define_lock("o", other)).lock_index, 0u);
}

TEST_F(LockSetTest, FreeSetGrantedInOneFrame) {
  sys_.node(3).write_lock_set({locks_[0], locks_[2], locks_[3]},
                              lock_request_value(3));
  sched_.run();
  EXPECT_EQ(holder(0), 3u);
  EXPECT_EQ(holder(1), kNoNode);
  EXPECT_EQ(holder(2), 3u);
  EXPECT_EQ(holder(3), 3u);
  EXPECT_EQ(root().stats().lock_set_requests, 1u);
  EXPECT_EQ(root().stats().frames, 1u);  // three grants, one multicast
  EXPECT_EQ(sys_.node(0).read(locks_[2]), lock_grant_value(3));
  sys_.node(3).write_lock_set({locks_[0], locks_[2], locks_[3]}, kLockFree);
  sched_.run();
  for (std::size_t k = 0; k < 4; ++k) EXPECT_EQ(holder(k), kNoNode);
  EXPECT_EQ(sys_.node(4).read(locks_[3]), kLockFree);
}

TEST_F(LockSetTest, SetQueuesAtFirstBusyLockAndResumesOnHandOver) {
  sys_.node(1).write(locks_[2], lock_request_value(1));
  sched_.run();
  // Node 3 wants {0, 2, 3}: 0 is free, 2 is busy — 3 must stay ungranted
  // (ascending order: never hold a higher lock while waiting for a lower).
  sys_.node(3).write_lock_set({locks_[0], locks_[2], locks_[3]},
                              lock_request_value(3));
  sched_.run();
  EXPECT_EQ(holder(0), 3u);
  EXPECT_EQ(holder(2), 1u);
  EXPECT_EQ(holder(3), kNoNode);
  ASSERT_EQ(root().lock_state(locks_[2]).queue.size(), 1u);
  // Meanwhile node 4 takes lock 3 (still free at the root).
  sys_.node(4).write(locks_[3], lock_request_value(4));
  sched_.run();
  EXPECT_EQ(holder(3), 4u);
  // Lock 2 handed over: the set resumes and queues again at lock 3.
  sys_.node(1).write(locks_[2], kLockFree);
  sched_.run();
  EXPECT_EQ(holder(2), 3u);
  EXPECT_EQ(holder(3), 4u);
  EXPECT_EQ(root().lock_state(locks_[3]).queue.size(), 1u);
  sys_.node(4).write(locks_[3], kLockFree);
  sched_.run();
  EXPECT_EQ(holder(3), 3u);
  for (const std::size_t k : {0u, 2u, 3u}) {
    EXPECT_EQ(sys_.node(0).read(locks_[k]), lock_grant_value(3)) << k;
  }
}

TEST_F(LockSetTest, SetReleaseHandsEveryLockToItsWaiter) {
  sys_.node(3).write_lock_set({locks_[1], locks_[2]}, lock_request_value(3));
  sched_.run();
  sys_.node(0).write(locks_[1], lock_request_value(0));
  sys_.node(4).write(locks_[2], lock_request_value(4));
  sched_.run();
  const auto frames = root().stats().frames;
  sys_.node(3).write_lock_set({locks_[1], locks_[2]}, kLockFree);
  sched_.run();
  EXPECT_EQ(holder(1), 0u);
  EXPECT_EQ(holder(2), 4u);
  EXPECT_EQ(root().stats().frames, frames + 1);  // both grants, one frame
}

TEST_F(LockSetTest, SetAcrossGroupsRejected) {
  const GroupId other = sys_.create_group({0, 1, 2}, 0);
  const VarId foreign = sys_.define_lock("f", other);
  EXPECT_THROW(sys_.node(1).write_lock_set({locks_[0], foreign},
                                           lock_request_value(1)),
               ContractViolation);
  EXPECT_THROW(sys_.node(1).write_lock_set({locks_[2], locks_[1]},
                                           lock_request_value(1)),
               ContractViolation);  // not ascending
}

}  // namespace
}  // namespace optsync::dsm
