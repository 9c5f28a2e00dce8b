// shard::Client: the consistency-aware operation facade over ShardedStore.
//
// Every operation is one of three verbs, with the read-side consistency an
// explicit, per-call choice rather than implied by the method —
//
//   read(node, key, &out, {ConsistencyLevel})
//   write(node, key, value)
//   txn(node, TxnRequest{puts | adds+delta | reads}, &result)
//
// The levels:
//
//   kLinearizable  the root's current value; clients pay a round trip.
//   kLeased        serve from a warm local lease, zero messages; bounded
//                  staleness (never past TTL, never a version the client
//                  saw invalidated).
//   kSnapshot      kLeased for single reads; a txn of `reads` is served
//                  entirely from local leases when every stripe is warm,
//                  else it runs the OCC snapshot protocol at the root.
//
// Under full replication every level reads local replica memory, so the
// level only changes behavior for client (non-member) nodes in
// partial-replication mode — which is exactly when the caller must say
// what staleness it can tolerate.
//
// On an elastic fabric (ElasticConfig::enabled) the client additionally
// carries a cached directory epoch. Every operation first checks its view
// against the store's live directory; a stale view pays one redirect probe
// to the believed owner's root, refreshes the epoch, and retries the check
// before the operation proceeds against the true owner. Stale-map clients
// are therefore slower, never wrong. On a static fabric the check is a
// single version compare.
//
// Client is otherwise stateless (a pointer to the store plus the epoch and
// its redirect counters), so any number can be constructed; the per-node
// one-instruction-stream rule still applies to the operations themselves.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "shard/sharded_store.hpp"
#include "simkern/coro.hpp"

namespace optsync::shard {

struct ReadOptions {
  ConsistencyLevel level = ConsistencyLevel::kLinearizable;
};

/// One multi-key transaction. Exactly one operation class may be
/// populated:
///   * puts  — atomic multi-key write;
///   * adds  — multi-key read-modify-write (each value += delta, absent
///             keys start at 0; the YCSB-F idiom);
///   * reads — consistent multi-key snapshot (values land in
///             TxnResult::values, aligned with `reads`).
/// Puts and adds run the store's one multi-key write path: each add is the
/// pair (key, delta) written with `add` set.
struct TxnRequest {
  std::vector<std::pair<Key, dsm::Word>> puts;
  std::vector<Key> adds;
  dsm::Word delta = 0;
  std::vector<Key> reads;
};

struct TxnResult {
  std::vector<std::optional<dsm::Word>> values;
};

class Client {
 public:
  explicit Client(ShardedStore& store)
      : store_(&store), view_epoch_(store.dir_epoch()) {}

  [[nodiscard]] ShardedStore& store() { return *store_; }
  [[nodiscard]] const ShardedStore& store() const { return *store_; }

  /// Directory-staleness accounting (elastic fabric; zero otherwise).
  struct Stats {
    std::uint64_t redirects = 0;  ///< probes paid for routing with a stale map
    std::uint64_t refreshes = 0;  ///< directory epoch updates taken
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  /// The directory epoch this client last routed with.
  [[nodiscard]] std::uint64_t view_epoch() const { return view_epoch_; }

  /// Single-key read on node `n` at the requested consistency level.
  /// `*out` receives the value, or nullopt if the key is absent.
  sim::Process read(dsm::NodeId n, Key key, std::optional<dsm::Word>* out,
                    ReadOptions opts = {});

  /// Single-key write under the owning shard's lock protocol.
  sim::Process write(dsm::NodeId n, Key key, dsm::Word value);

  /// Multi-key transaction. `result` may be null unless `req.reads` is the
  /// populated class. `opts.level` applies to the reads class only.
  sim::Process txn(dsm::NodeId n, TxnRequest req, TxnResult* result = nullptr,
                   ReadOptions opts = {});

 private:
  /// Pays the stale-directory penalty for every key the op touches, then
  /// refreshes view_epoch_. Loops until the view is current — the map can
  /// move again while a probe is in flight.
  sim::Process sync_route(dsm::NodeId n, std::vector<Key> keys);

  ShardedStore* store_;
  std::uint64_t view_epoch_ = 0;
  Stats stats_;
};

}  // namespace optsync::shard
