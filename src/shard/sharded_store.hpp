// ShardedStore: a KV namespace striped over N independent eagersharing
// groups — the service layer that turns the paper's single-group lock
// protocols into a horizontally scalable system.
//
// Single-root sequencing is the GWC scaling bottleneck: every write of a
// group funnels through one root. The store therefore creates one sharing
// group PER SHARD, each with its own root (spread round-robin over the
// machine so sequencing work is distributed) and a set of KV slots. A
// ShardMap routes keys to shards; unrelated keys never meet a common
// sequencer.
//
// Stripe locks: inside a shard every slot stripe (stripe == slot == orec
// stripe == lease stripe) has its OWN lock variable and version word, all
// in the shard's one group — the root stays the lock manager of every
// stripe and the GWC order stays per shard, but writes to different slots
// no longer queue behind each other. A slot's key, value and orec, and the
// stripe's version word, are mutex data guarded by that stripe's lock (the
// lock is exactly as wide as the orec it protects). Multi-stripe sections
// — OCC commits, the MultiGroupMutex fallback, elastic reassignment — send
// one lock-set request per shard, shards ascending, so they still pay one
// round trip per shard. The serializability ledger rule: each write section
// bumps the version word of the LOWEST stripe it holds on each shard, and
// version(s) sums the stripes, so it still counts committed sections.
//
// Replication modes (LeaseConfig::server_nodes):
//   * full (0, the default) — every node is a member of every shard group;
//     reads are free everywhere, every write multicasts machine-wide.
//   * partial (N > 0) — groups span only nodes [0, N); the rest are pure
//     clients. Client reads go through the leased read-replica tier
//     (shard/lease.hpp): a warm lease serves locally with zero messages, a
//     miss round-trips to the shard root. Every mutating operation is
//     routed to the owning (primary) shard root's node and executed there
//     by that node's proxy chain — a per-node FIFO of operations, so the
//     root node stays one instruction stream (the Fig. 4 nesting rule)
//     however many clients forward to it.
//
// Per-stripe lock protocol: every single-key write runs through the
// stripe's core::OptimisticMutex (the Fig. 4 transformation). Each node's
// own usage history picks §4 speculation or the §2 queue protocol, so a
// lone writer speculates and a contended stripe falls back to queueing.
//
// Multi-key transactions that cross shards run, by default, on the
// optimistic txn::TxnManager layer (TxnConfig::mode == TxnMode::kOcc):
// speculate locally, detect conflicts through clobber interrupts and orec
// versions, then commit under the involved shard locks held only for
// validate+publish. Repeated aborts escalate to the irrevocable fallback —
// the TxnMode::kLegacy path, core::MultiGroupMutex held across the whole
// compute. Either way every involved shard's ledger is bumped once, so the
// per-shard serializability ledger stays exact across shard boundaries,
// and every committed slot write bumps the slot's orec stripe,
// which is what multi_get/multi_rmw readers — and lease epochs — validate
// against.
//
// The operation surface lives on shard::Client (shard/client.hpp):
// read/write/txn with an explicit ConsistencyLevel.
//
// Concurrency contract: operations on one node must not overlap (a node
// models one instruction stream — the Fig. 4 nesting rule). load::Generator
// serializes per node; direct callers must do the same. In partial mode the
// store's own proxy chains uphold the rule on root nodes.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/multi_group_mutex.hpp"
#include "core/optimistic_mutex.hpp"
#include "dsm/system.hpp"
#include "shard/lease.hpp"
#include "shard/shard_map.hpp"
#include "simkern/coro.hpp"
#include "stats/lock_stats.hpp"
#include "stats/service_report.hpp"
#include "telemetry/sampler.hpp"
#include "txn/txn.hpp"

namespace optsync::elastic {
class RootMigrator;
class DirectoryManager;
class ElasticController;
}  // namespace optsync::elastic

namespace optsync::shard {

class Client;

/// The store never reads this: every stripe runs the OptimisticMutex
/// (see the header comment). It survives only because benchmark code
/// assigns ShardedStoreConfig::lock; drop both together.
enum class LockPolicy { kAdaptive };

/// How cross-shard multi-key operations commit.
enum class TxnMode { kOcc, kLegacy };

constexpr std::string_view txn_mode_name(TxnMode m) {
  switch (m) {
    case TxnMode::kOcc:
      return "occ";
    case TxnMode::kLegacy:
      return "legacy";
  }
  return "?";
}

/// What a read is allowed to return (shard::Client::read / txn).
///   * kLinearizable — the value the shard root holds at serve time; a
///     client pays the full round trip on every read.
///   * kLeased       — serve from a valid local lease when warm (zero
///     messages), fetch a fresh lease otherwise. Bounded staleness: never
///     past the lease TTL, never a version the client saw invalidated.
///   * kSnapshot     — like kLeased for single reads; a multi-key read is
///     additionally served entirely from local leases only when EVERY
///     stripe is warm (epoch-consistent, the orec-validated snapshot),
///     else it falls back to the OCC multi_get protocol at the root.
/// On group-member nodes every level reads local replica memory — that is
/// eagersharing's contract.
enum class ConsistencyLevel { kLinearizable, kLeased, kSnapshot };

constexpr std::string_view consistency_level_name(ConsistencyLevel c) {
  switch (c) {
    case ConsistencyLevel::kLinearizable:
      return "linearizable";
    case ConsistencyLevel::kLeased:
      return "leased";
    case ConsistencyLevel::kSnapshot:
      return "snapshot";
  }
  return "?";
}

/// Cross-shard transaction commit configuration.
struct TxnConfig {
  /// kOcc speculates outside the locks and holds them only for
  /// validate+publish; kLegacy holds every involved lock across the whole
  /// compute (the pre-OCC MultiGroupMutex path, kept as baseline and as
  /// the OCC irrevocable fallback).
  TxnMode mode = TxnMode::kOcc;
  /// OCC layer tuning. `orec_stripes` is forced to slots_per_shard by the
  /// store (stripe == slot, so a slot write always bumps the orec its
  /// readers validated).
  txn::TxnConfig tuning;
};

/// Elastic control-plane knobs (src/elastic/). Off by default: the fabric
/// is exactly the static store — no hot groups, no directory mutation, no
/// extra read-set entries on blind OCC puts.
struct ElasticConfig {
  bool enabled = false;
  /// Dedicated promotion groups appended after the base shards. A hot key
  /// pinned to one gets a private sequencer and lock — the "one-stripe
  /// group" of hot-key routing.
  std::uint32_t hot_groups = 2;
};

struct ShardedStoreConfig {
  std::uint32_t shards = 4;
  std::uint32_t slots_per_shard = 8;  ///< KV slots (key, value var pairs)
  ShardMap::Policy policy = ShardMap::Policy::kHash;
  /// Range policy: the striped key domain [0, key_space).
  Key key_space = 1024;

  LockPolicy lock = LockPolicy::kAdaptive;  ///< unread; see LockPolicy

  /// In-section compute per write (hash + slot scan).
  sim::Duration write_compute_ns = 800;

  TxnConfig txn;
  /// Replication mode + leased read-replica tier (shard/lease.hpp).
  LeaseConfig lease;

  /// Shard s roots at members[(s * root_stride) % members.size()]; the
  /// default walks the machine so consecutive shards sequence on
  /// different nodes. Construction rejects strides whose cycle reaches
  /// fewer distinct nodes than there are shards while other members sit
  /// idle (gcd(stride, members) > 1 silently stacked roots before).
  std::uint32_t root_stride = 1;

  ElasticConfig elastic;
};

class ShardedStore {
 public:
  /// Creates one sharing group per shard. Group membership is all nodes
  /// (full replication) or nodes [0, lease.server_nodes) — see the header
  /// comment on replication modes.
  ShardedStore(dsm::DsmSystem& sys, ShardedStoreConfig cfg);

  ShardedStore(const ShardedStore&) = delete;
  ShardedStore& operator=(const ShardedStore&) = delete;

  [[nodiscard]] const ShardMap& map() const { return map_; }
  /// Total shard count, including elastic hot groups (report sizing,
  /// introspection loops). The base routing modulus is base_shards().
  [[nodiscard]] std::uint32_t shards() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  /// Shards the base ShardMap policy routes over (the configured count;
  /// hot groups are reachable only through pins).
  [[nodiscard]] std::uint32_t base_shards() const { return map_.shards(); }
  [[nodiscard]] ShardId shard_of(Key key) const { return map_.shard_of(key); }
  /// The KV slot (== orec stripe == lease stripe at width 1) `key` maps to
  /// within its shard.
  [[nodiscard]] std::size_t slot_of(Key key) const;
  [[nodiscard]] dsm::DsmSystem& system() { return *sys_; }
  [[nodiscard]] const ShardedStoreConfig& config() const { return cfg_; }

  /// True in partial-replication mode (lease tier active).
  [[nodiscard]] bool partial() const { return lease_mgr_ != nullptr; }
  /// True when `n` is a member of the shard groups (always true in full
  /// replication).
  [[nodiscard]] bool is_member(dsm::NodeId n) const {
    return !partial() || n < cfg_.lease.server_nodes;
  }
  /// The lease tier, or nullptr under full replication.
  [[nodiscard]] LeaseManager* leases() { return lease_mgr_.get(); }
  [[nodiscard]] const LeaseManager* leases() const { return lease_mgr_.get(); }

  // --- versioned directory (elastic fabric) -------------------------------
  /// True when the elastic control plane is configured.
  [[nodiscard]] bool elastic() const { return cfg_.elastic.enabled; }
  /// Full replication: the reserved mover node directory moves execute on
  /// — the last member, which must not run regular traffic (one
  /// instruction stream per node). kNoNode when not elastic or partial:
  /// partial replication routes moves through the destination root's
  /// proxy chain instead.
  [[nodiscard]] dsm::NodeId control_node() const { return control_node_; }
  /// Current directory epoch (== ShardMap::version of the live map).
  /// Clients snapshot this and compare on every routed op.
  [[nodiscard]] std::uint64_t dir_epoch() const { return map_.version(); }

  /// One routing decision checked against a client's directory epoch.
  struct Route {
    ShardId owner = 0;     ///< current directory's answer (always correct)
    ShardId believed = 0;  ///< what a client at `epoch` would have routed to
    bool stale = false;    ///< believed wrong (or epoch aged out of history)
  };
  [[nodiscard]] Route route(Key key, std::uint64_t epoch) const;

  /// The stale-directory penalty: one control round trip to the believed
  /// owner's root, answered with a redirect (counted against the believed
  /// shard). Free when `n` already is that root node.
  sim::Process redirect_probe(dsm::NodeId n, ShardId believed);

  // --- elastic counters (per shard; all zero on a static fabric) ----------
  [[nodiscard]] std::uint64_t migrations(ShardId s) const;
  [[nodiscard]] std::uint64_t splits(ShardId s) const;
  [[nodiscard]] std::uint64_t merges(ShardId s) const;
  [[nodiscard]] std::uint64_t promotions(ShardId s) const;
  [[nodiscard]] std::uint64_t demotions(ShardId s) const;
  [[nodiscard]] std::uint64_t redirects(ShardId s) const;

  /// Observer invoked with (current owner, key) at every keyed operation's
  /// routing point — the elastic key sketch taps accesses here. One
  /// observer (last set wins); null disables.
  void set_access_observer(std::function<void(ShardId, Key)> fn) {
    access_observer_ = std::move(fn);
  }

  // --- end-of-run rollup -------------------------------------------------
  /// Fills the lock/root/ledger/lease side of `report` (resizing its shard
  /// list if needed): per-shard LockStats, root sequencing/frame rollup,
  /// final version vs. committed-write counts, lease counters,
  /// network/fault totals.
  void fill_report(stats::ServiceReport& report);

  /// True when every replica of every shard agrees on every slot and the
  /// version word (GWC convergence). Partial mode checks the members.
  [[nodiscard]] bool replicas_converged() const;

  /// Registers live per-shard gauges/rates on `sampler`: arrival backlog
  /// (issued - completed, read from `live` — the report the generator
  /// updates during the run), root lock-queue length (summed over the
  /// shard's stripe locks), open-frame occupancy,
  /// goodput, plus global message/retransmit/lease rates. Both `sampler`
  /// and `live` must outlive the store's sampling window.
  void register_telemetry(telemetry::Sampler& sampler,
                          const stats::ServiceReport& live);

  // --- per-shard introspection (tests, benches) -------------------------
  /// The lock variable of slot stripe `stripe` of shard `s`.
  [[nodiscard]] dsm::VarId lock_var(ShardId s, std::size_t stripe) const;
  [[nodiscard]] dsm::GroupId group_of(ShardId s) const;
  [[nodiscard]] dsm::NodeId root_of(ShardId s) const;
  [[nodiscard]] std::uint64_t committed_writes(ShardId s) const;
  /// Final ledger: the sum of the shard's stripe version words, read on
  /// the shard's root node.
  [[nodiscard]] dsm::Word version(ShardId s) const;
  /// Flight record of the shard's stripe locks (one record for all).
  [[nodiscard]] const stats::LockStats& lock_stats(ShardId s) const;
  /// Whole-chain flight record of cross-shard transactions ("svc.txn").
  [[nodiscard]] const stats::LockStats& txn_stats() const {
    return txn_stats_;
  }
  /// OCC layer introspection (orec versions, contention counters).
  [[nodiscard]] txn::TxnManager& txn_manager() { return *txn_mgr_; }
  /// Cross-shard transactions that committed / aborted / retried with this
  /// shard involved, plus escalations to the irrevocable fallback.
  [[nodiscard]] std::uint64_t txn_commits(ShardId s) const;
  [[nodiscard]] std::uint64_t txn_aborts(ShardId s) const;
  [[nodiscard]] std::uint64_t txn_retries(ShardId s) const;
  [[nodiscard]] std::uint64_t txn_fallbacks(ShardId s) const;
  /// Abort-reason partition and per-stripe conflict heatmap (forensics;
  /// see the Shard field comments for the sum invariant).
  [[nodiscard]] std::uint64_t aborts_read_clobber(ShardId s) const;
  [[nodiscard]] std::uint64_t aborts_validation(ShardId s) const;
  [[nodiscard]] std::uint64_t aborts_dir_epoch(ShardId s) const;
  [[nodiscard]] const std::vector<std::uint64_t>& stripe_conflicts(
      ShardId s) const;

 private:
  friend class Client;
  friend class elastic::RootMigrator;
  friend class elastic::DirectoryManager;
  friend class elastic::ElasticController;

  struct Shard {
    dsm::GroupId group = 0;
    dsm::NodeId root = 0;
    // Per slot stripe, indexed by slot: the stripe lock (ascending VarIds,
    // defined back to back), its ledger word, the slot's key/value vars,
    // and the stripe's one lock client.
    std::vector<dsm::VarId> locks;
    std::vector<dsm::VarId> versions;
    std::vector<dsm::VarId> slot_keys;
    std::vector<dsm::VarId> slot_values;
    std::vector<std::unique_ptr<core::OptimisticMutex>> muxes;
    stats::LockStats stats;  ///< fed by every stripe's mutex
    std::uint64_t committed = 0;  ///< write sections finished on this shard
    txn::SiteId site = 0;  ///< this shard's site in the txn layer
    std::uint64_t txn_commits = 0;
    std::uint64_t txn_aborts = 0;
    std::uint64_t txn_retries = 0;
    std::uint64_t txn_fallbacks = 0;
    // Abort-reason partition (telemetry/journal.hpp taxonomy). Bumped on
    // every involved shard, exactly like txn_aborts, so per shard and in
    // total: read_clobber + validation + dir_epoch == txn_aborts.
    std::uint64_t aborts_read_clobber = 0;
    std::uint64_t aborts_validation = 0;
    std::uint64_t aborts_dir_epoch = 0;
    /// Conflict heatmap: aborts attributed to each orec stripe OF THIS
    /// shard (bumped only on the conflict shard). Sized slots_per_shard+1;
    /// the last entry is the elastic directory stripe.
    std::vector<std::uint64_t> stripe_conflicts;
    // Elastic fabric counters (all stay zero on a static fabric).
    std::uint64_t migrations = 0;  ///< root moved away from/onto this shard
    std::uint64_t splits = 0;      ///< stripe ranges donated (counted on src)
    std::uint64_t merges = 0;      ///< donated ranges taken back (on src)
    std::uint64_t promotions = 0;  ///< hot keys pinned away (on src)
    std::uint64_t demotions = 0;   ///< pinned keys returned (on home shard)
    std::uint64_t redirects = 0;   ///< stale-epoch probes answered here
  };

  // --- Client entry points (shard/client.hpp delegates here) ------------
  sim::Process read_op(dsm::NodeId n, Key key, std::optional<dsm::Word>* out,
                       ConsistencyLevel level);
  sim::Process write_op(dsm::NodeId n, Key key, dsm::Word value);
  sim::Process multi_put_op(dsm::NodeId n,
                            std::vector<std::pair<Key, dsm::Word>> kvs);
  sim::Process multi_rmw_op(dsm::NodeId n, std::vector<Key> keys,
                            dsm::Word delta);
  sim::Process multi_get_op(dsm::NodeId n, std::vector<Key> keys,
                            std::vector<std::optional<dsm::Word>>* out,
                            ConsistencyLevel level);

  [[nodiscard]] std::optional<dsm::Word> local_get(dsm::NodeId n,
                                                   Key key) const;
  void write_slot(Shard& sh, dsm::DsmNode& node, Key key, dsm::Word value);
  /// Single-key write executing on node `n` (full mode: the caller's
  /// node; partial mode: the shard root's, via its proxy chain).
  sim::Process put_direct(dsm::NodeId n, Key key, dsm::Word value);
  /// `moved` is set (and nothing written) when the directory reassigned
  /// the key between routing and lock acquisition — put_direct re-routes.
  sim::Process put_optimistic(Shard& sh, ShardId sid, dsm::NodeId n, Key key,
                              dsm::Word value, bool* moved);
  sim::Process multi_put_direct(dsm::NodeId n,
                                std::vector<std::pair<Key, dsm::Word>> kvs);
  sim::Process multi_rmw_direct(dsm::NodeId n, std::vector<Key> keys,
                                dsm::Word delta);
  sim::Process multi_get_direct(dsm::NodeId n, std::vector<Key> keys,
                                std::vector<std::optional<dsm::Word>>* out);
  sim::Process multi_put_impl(dsm::NodeId n,
                              std::vector<std::pair<Key, dsm::Word>> kvs);
  sim::Process multi_put_occ(dsm::NodeId n,
                             std::vector<std::pair<Key, dsm::Word>> kvs,
                             std::vector<ShardId> ids);
  sim::Process multi_rmw_impl(dsm::NodeId n, std::vector<Key> keys,
                              dsm::Word delta);

  /// The stripe locks a multi-key section over some keys holds: every
  /// involved (shard, slot) stripe lock, ascending — which is the global
  /// lock order, since a shard's stripe locks are defined back to back —
  /// plus, per involved shard, the lowest stripe held: the one whose
  /// version word the section's ledger bump goes to.
  struct Footprint {
    std::vector<ShardId> ids;        ///< involved shards, ascending
    std::vector<std::uint32_t> low;  ///< lowest stripe held on ids[i]
    std::vector<dsm::VarId> locks;   ///< ascending
  };
  [[nodiscard]] Footprint footprint(const std::vector<Key>& keys) const;
  /// Irrevocable sections: acquires the footprint of `*keys` through a
  /// core::MultiGroupMutex (one lock-set request per shard, shards
  /// ascending) into `*fp` / `*mux`. Elastic fabrics re-check ownership
  /// after the grants: if the directory moved a key while we queued, the
  /// locks are released and the new owners' acquired instead — never
  /// write under the wrong shard's locks.
  sim::Process lock_footprint(dsm::NodeId n, const std::vector<Key>* keys,
                              Footprint* fp,
                              std::unique_ptr<core::MultiGroupMutex>* mux);
  /// The ledger bump of one write section: +1 on the lowest held stripe's
  /// version word of every involved shard.
  void bump_ledger(dsm::DsmNode& node, const Footprint& fp);

  // --- partial-replication routing --------------------------------------
  using OpThunk = std::function<sim::Process()>;
  /// Appends `thunk` to `server`'s proxy chain (the node's single
  /// instruction stream for mutating ops); returns a Process completing
  /// when the thunk has run.
  sim::Process enqueue_proxy(dsm::NodeId server, OpThunk thunk);
  sim::Process chain_after(sim::Process prev, OpThunk thunk);
  /// Routes an operation to `primary`'s root: enqueued directly when `n`
  /// IS the root node, else shipped as an RPC (request `req_bytes` up,
  /// `reply_bytes` back once the proxied op completes).
  sim::Process forward_op(dsm::NodeId n, ShardId primary,
                          std::uint32_t req_bytes, std::uint32_t reply_bytes,
                          OpThunk thunk);

  [[nodiscard]] std::vector<ShardId> involved_shards(
      const std::vector<Key>& keys) const;
  void record_txn_flight(sim::Time started, sim::Time acquired);

  /// Classifies one failed OCC commit attempt, bumps the abort-reason
  /// counters on every involved shard + the conflict-stripe heatmap on the
  /// conflict shard, and journals the abort (when a journal is attached).
  void record_txn_abort(dsm::NodeId n,
                        const txn::TxnManager::CommitResult& res,
                        const std::vector<ShardId>& ids, std::uint32_t attempt);
  /// Journals a contention-manager escalation to the irrevocable fallback.
  void record_txn_fallback(dsm::NodeId n, const std::vector<ShardId>& ids,
                           std::uint32_t attempts);

  // --- elastic fabric internals (src/elastic/ drives these) --------------
  /// Applies the topology half of a root migration: spanning tree, the
  /// shard's root field, the lease directory. Called by elastic::
  /// RootMigrator between quiesce and handoff replay.
  void apply_root_move(ShardId s, dsm::NodeId to);

  /// The two-phase directory move primitive behind split/merge/promote/
  /// demote. Under every stripe lock of src and dst it moves every src slot
  /// whose key satisfies `pred` into dst, bumps every src orec stripe
  /// (dooming racing OCC transactions at the old epoch), commits one
  /// write section per involved shard (the ledger stays exact), snapshots
  /// the old map into history, and installs `mutate`'s new epoch. Runs on
  /// the control node (full replication) or through the destination
  /// root's proxy chain (partial).
  sim::Process elastic_reassign(ShardId src, ShardId dst,
                                std::function<bool(Key)> pred,
                                std::function<void(ShardMap&)> mutate,
                                std::uint64_t* moved_slots);
  sim::Process reassign_body(dsm::NodeId exec, ShardId src, ShardId dst,
                             std::function<bool(Key)> pred,
                             std::function<void(ShardMap&)> mutate,
                             std::uint64_t* moved_slots);

  dsm::DsmSystem* sys_;
  ShardedStoreConfig cfg_;
  ShardMap map_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Created after the shard groups so its orec vars slot into each
  /// shard's group; one site per shard, site id == shard id.
  std::unique_ptr<txn::TxnManager> txn_mgr_;
  /// Partial-replication lease tier; nullptr under full replication.
  std::unique_ptr<LeaseManager> lease_mgr_;
  /// Per-node proxy chain tails (partial mode; only root nodes used).
  struct ProxySlot {
    bool active = false;
    sim::Process tail;
  };
  std::vector<ProxySlot> proxies_;
  stats::LockStats txn_stats_;
  /// Bounded history of past directory snapshots (newest last): a client
  /// whose epoch is still in history routes against its exact snapshot; an
  /// epoch that aged out forces one refresh. Only mutated maps are kept.
  std::vector<ShardMap> map_history_;
  static constexpr std::size_t kMapHistory = 16;
  dsm::NodeId control_node_ = dsm::kNoNode;
  std::function<void(ShardId, Key)> access_observer_;
};

}  // namespace optsync::shard
