// Leased read replicas: the local caching tier for partial replication.
//
// Full replication (the seed behavior, LeaseConfig::server_nodes == 0)
// makes every read free everywhere — and makes the machine pay a multicast
// per write per node. In partial-replication mode only the first
// `server_nodes` nodes are members of the shard groups; the rest are pure
// clients whose reads would otherwise pay a full round trip to the shard
// root on every access. The lease tier turns that remote read back into a
// local-memory operation (the RMR-bounding idea of local-spin DSM mutual
// exclusion, applied to data): a client acquires a *versioned read lease*
// on a key's stripe from the shard's group root, caches the stripe's
// slots, and serves subsequent reads with zero messages until the lease is
// invalidated or its TTL expires. The writer pays the invalidation.
//
// Consistency is anchored to GWC commit points. The root's LeaseDirectory
// taps every coalesce flush through GroupRoot::set_frame_observer — the
// instant a frame's writes become the group's committed order. At that
// instant the directory:
//   1. applies the frame's slot/version writes to its authoritative table
//      (grants are answered from this table, never from the root node's
//      trailing replica, so a grant's value and epoch always agree);
//   2. bumps the lease epoch of every stripe whose orec the frame bumps —
//      lease epochs advance in lockstep with the OCC orec versions readers
//      validate, which is what lets a warm kSnapshot multi_get stand in
//      for an orec-validated read set;
//   3. ships each affected live holder ONE coalesced update-carrying
//      invalidation listing the (stripe, epoch, new content) the flush
//      superseded — eagersharing extended to the client tier. The holder's
//      lease refreshes in place at the new epoch (its TTL does NOT extend;
//      only a grant does that, so idle clients age out of the directory),
//      which turns the re-grant round trip every hot-key write would
//      otherwise force into nothing. Invalidation work batches exactly as
//      the frame batched: a 64-write frame costs a holder one message.
//
// The consistency model for leased reads is bounded staleness: between a
// flush and the delivery of its invalidation a client may still serve the
// prior epoch (the same trailing-replica window every group member has,
// since frames take flight time too). The StaleReadAuditor makes the bound
// checkable: a read must never be served from a lease the client has
// already seen superseded — i.e. after an invalidation for a newer epoch
// was DELIVERED to that client — and never past its TTL.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dsm/system.hpp"
#include "shard/shard_map.hpp"
#include "simkern/coro.hpp"

namespace optsync::shard {

struct LeaseConfig {
  /// Client-side caching switch. Off: client reads still work but every
  /// one pays the root round trip (the leases-off baseline benches compare
  /// against). The root-side directory runs either way in partial mode.
  bool enabled = false;

  /// 0 = full replication over all nodes (the pre-lease store, byte for
  /// byte). N > 0: shard groups span nodes [0, N); nodes >= N are clients.
  std::uint32_t server_nodes = 0;

  /// Lease lifetime. A client never serves a lease past grant + ttl_ns;
  /// the root prunes expired holders at the next flush without sending
  /// them invalidations (their lease already self-revoked).
  sim::Duration ttl_ns = 2'000'000;

  /// KV slots per lease stripe. Leases, epochs, and the holder directory
  /// are per stripe, so width bounds directory size: a shard tracks at
  /// most ceil(slots / width) * clients holder entries. Width 1 pins the
  /// lease stripe to the OCC orec stripe (stripe == slot == orec).
  std::uint32_t stripe_width = 1;

  /// Server-side cost to answer one lease RPC: directory lookup, holder
  /// bookkeeping, reply marshalling, and the reply's egress serialization
  /// at the 1 Gb/s link. Each server NODE is one software serializer —
  /// concurrent grants and linearizable remote reads queue FIFO behind it
  /// (the point-to-point network itself is latency-only, so this clock is
  /// what models the fan-in ceiling the lease tier exists to dodge, the
  /// same way GroupRoot's wire-clear models the frame egress).
  /// Invalidations are exempt: they ride the flush path, whose egress the
  /// frame wire-clear already charges.
  sim::Duration root_service_ns = 650;

  /// Wire model, mirroring dsm::DemandFetchConfig: requests and acks are
  /// control-sized, payloads add data_bytes per slot carried.
  std::uint32_t ctrl_bytes = 16;
  std::uint32_t data_bytes = 24;
  /// An update-carrying invalidation: base + per-revoked-stripe record +
  /// data_bytes per slot of pushed stripe content.
  std::uint32_t inval_base_bytes = 16;
  std::uint32_t inval_stripe_bytes = 8;
};

/// Independent witness for the lease tier's staleness bound. Fed two event
/// streams — invalidation deliveries and lease-served reads — it tracks,
/// per (client, shard, stripe), the newest epoch the client has been TOLD
/// is superseded, and flags any read served from an older epoch (or past
/// its TTL). Kept deliberately free of LeaseManager state so tests and the
/// service CLI can trust it as a second opinion.
class StaleReadAuditor {
 public:
  void on_invalidation(dsm::NodeId node, ShardId shard, std::uint32_t stripe,
                       std::uint64_t epoch);
  void on_serve(dsm::NodeId node, ShardId shard, std::uint32_t stripe,
                std::uint64_t epoch, sim::Time now, sim::Time expiry);

  [[nodiscard]] std::uint64_t checks() const { return checks_; }
  [[nodiscard]] std::uint64_t violations() const { return violations_; }
  [[nodiscard]] bool ok() const { return violations_ == 0; }
  /// One-line verdict for CLI output / test failure messages.
  [[nodiscard]] std::string report() const;

 private:
  static std::uint64_t slot_key(dsm::NodeId node, ShardId shard,
                                std::uint32_t stripe) {
    return (static_cast<std::uint64_t>(node) << 44) |
           (static_cast<std::uint64_t>(shard) << 24) | stripe;
  }
  std::unordered_map<std::uint64_t, std::uint64_t> highwater_;
  std::uint64_t checks_ = 0;
  std::uint64_t violations_ = 0;
  std::uint64_t stale_ = 0;
  std::uint64_t expired_ = 0;
};

/// The lease tier: root-side directories (one per shard) + client-side
/// stripe caches + the RPC glue between them. Owned by ShardedStore in
/// partial-replication mode; inert (never constructed) under full
/// replication.
class LeaseManager {
 public:
  LeaseManager(dsm::DsmSystem& sys, LeaseConfig cfg,
               std::uint32_t slots_per_shard);

  LeaseManager(const LeaseManager&) = delete;
  LeaseManager& operator=(const LeaseManager&) = delete;

  /// Wires one shard into the tier: builds the var -> (slot | orec stripe)
  /// role table, seeds the authoritative value table, and installs
  /// the frame observer on the shard's root. Call once per shard, before
  /// any traffic.
  void register_shard(ShardId shard, dsm::GroupId group, dsm::NodeId root,
                      const std::vector<dsm::VarId>& slot_keys,
                      const std::vector<dsm::VarId>& slot_values,
                      const std::vector<dsm::VarId>& orec_vars);

  /// One client read against `shard`'s stripe of `slot`. With `leased` set
  /// (and LeaseConfig::enabled) the read is served from the local stripe
  /// cache when the lease is warm — zero messages — and otherwise fetches
  /// a fresh lease from the root. Without it the read is a plain
  /// linearizable round trip (no lease installed). `*out` receives the
  /// key's value, or nullopt if absent.
  sim::Process client_read(dsm::NodeId n, ShardId shard, std::size_t slot,
                           Key key, std::optional<dsm::Word>* out,
                           bool leased);

  /// True when every slot the stripes of `slots` cover is warm on `n`:
  /// a valid, unexpired lease with cached values. A warm kSnapshot
  /// multi_get is served entirely locally.
  [[nodiscard]] bool warm(dsm::NodeId n, ShardId shard,
                          const std::vector<std::size_t>& slots) const;
  /// Serves one slot from the warm cache (caller checked warm()).
  void serve_warm(dsm::NodeId n, ShardId shard, std::size_t slot, Key key,
                  std::optional<dsm::Word>* out);

  [[nodiscard]] std::uint32_t stripe_of(std::size_t slot) const {
    return static_cast<std::uint32_t>(slot) / cfg_.stripe_width;
  }
  [[nodiscard]] std::uint32_t stripes() const { return stripes_; }
  [[nodiscard]] const LeaseConfig& config() const { return cfg_; }

  // --- introspection (fill_report, tests, benches) -----------------------
  struct ShardCounters {
    std::uint64_t hits = 0;
    std::uint64_t grants = 0;
    std::uint64_t invalidations = 0;  ///< per-holder stripe revocations sent
    std::uint64_t remote_reads = 0;   ///< linearizable round trips
    std::uint64_t forwarded = 0;      ///< writes/txns routed to the root
  };
  [[nodiscard]] const ShardCounters& counters(ShardId s) const {
    return dirs_[s]->counters;
  }
  void note_forwarded(ShardId s) { ++dirs_[s]->counters.forwarded; }

  /// Online root migration: points the shard's directory at the successor
  /// root. The directory itself (values, epochs, holders) is root-location
  /// independent — stripe epochs continue across the cut, which is why the
  /// StaleReadAuditor sees one uninterrupted stream — but grants,
  /// linearizable reads, and invalidations must originate at (and charge
  /// the RPC serializer of) the new root node from here on.
  void set_root(ShardId s, dsm::NodeId root) { dirs_[s]->root = root; }

  /// Live holder entries in `shard`'s directory (all stripes).
  [[nodiscard]] std::size_t directory_size(ShardId s) const;
  [[nodiscard]] std::size_t holders(ShardId s, std::uint32_t stripe) const;
  /// Root-side lease epoch of one stripe (== the orec version the stripe's
  /// last committed write published, when stripe_width == 1).
  [[nodiscard]] std::uint64_t stripe_epoch(ShardId s,
                                           std::uint32_t stripe) const;

  [[nodiscard]] StaleReadAuditor& auditor() { return auditor_; }
  [[nodiscard]] const StaleReadAuditor& auditor() const { return auditor_; }

 private:
  /// Where a frame write lands in the lease model.
  enum class Role : std::uint8_t { kSlotKey, kSlotValue, kOrec };
  struct VarRole {
    ShardId shard;
    Role role;
    std::uint32_t index;  ///< slot (kSlotKey/kSlotValue) or orec stripe
  };

  struct Holder {
    dsm::NodeId node;
    std::uint64_t epoch;
    sim::Time expiry;
  };

  /// Root-side state for one shard: the authoritative (as-of-last-flush)
  /// value table grants are answered from, per-stripe epochs, and the
  /// holder directory.
  struct ShardDir {
    ShardId shard = 0;
    dsm::GroupId group = 0;
    dsm::NodeId root = 0;
    std::vector<dsm::Word> slot_key;
    std::vector<dsm::Word> slot_val;
    std::vector<std::uint64_t> epoch;        ///< per lease stripe
    std::vector<std::vector<Holder>> holder; ///< per lease stripe
    ShardCounters counters;
  };

  /// Client-side cached stripe. `valid` false once invalidated or
  /// superseded; `max_invalidated` outlives the lease so a late grant that
  /// raced an invalidation is detected and refetched.
  struct StripeLease {
    std::uint64_t epoch = 0;
    std::uint64_t max_invalidated = 0;
    sim::Time expiry = 0;
    bool valid = false;
    std::vector<dsm::Word> slot_key;  ///< stripe's slots, cached at grant
    std::vector<dsm::Word> slot_val;
  };

  void on_flush(ShardDir& dir, const dsm::Frame& frame);
  void send_invalidations(
      ShardDir& dir,
      const std::vector<std::pair<dsm::NodeId, std::uint32_t>>& revoked);
  [[nodiscard]] StripeLease* lease_at(dsm::NodeId n, ShardId shard,
                                      std::uint32_t stripe);
  [[nodiscard]] const StripeLease* lease_at(dsm::NodeId n, ShardId shard,
                                            std::uint32_t stripe) const;
  static std::uint64_t cache_key(ShardId shard, std::uint32_t stripe) {
    return (static_cast<std::uint64_t>(shard) << 24) | stripe;
  }
  /// Reserves the next FIFO service slot on `root`'s RPC serializer and
  /// returns the delay from now until that slot completes (when the
  /// handler runs and the reply dispatches). See root_service_ns.
  [[nodiscard]] sim::Duration serve_delay(dsm::NodeId root);

  dsm::DsmSystem* sys_;
  LeaseConfig cfg_;
  std::uint32_t slots_;
  std::uint32_t stripes_;
  std::vector<std::unique_ptr<ShardDir>> dirs_;  ///< indexed by ShardId
  std::unordered_map<dsm::VarId, VarRole> roles_;
  /// Per-node stripe caches (clients only ever populate theirs).
  std::vector<std::unordered_map<std::uint64_t, StripeLease>> cache_;
  /// Per-node RPC-serializer clear times (see serve_delay); indexed by
  /// NodeId, only server nodes' entries ever advance.
  std::vector<sim::Time> svc_clear_;
  StaleReadAuditor auditor_;
};

}  // namespace optsync::shard
