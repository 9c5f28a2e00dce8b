#include "shard/sharded_store.hpp"

#include <algorithm>
#include <numeric>
#include <string>

#include "simkern/assert.hpp"
#include "simkern/random.hpp"
#include "stats/metrics.hpp"
#include "telemetry/journal.hpp"
#include "telemetry/tracer.hpp"

namespace optsync::shard {

namespace {
ShardMap make_map(const ShardedStoreConfig& cfg) {
  return cfg.policy == ShardMap::Policy::kHash
             ? ShardMap::hashed(cfg.shards)
             : ShardMap::ranged(cfg.shards, cfg.key_space);
}

/// Forwarded-op rendezvous: the origin parks here until the completion ack
/// from the executing root arrives.
struct FwdRendezvous {
  explicit FwdRendezvous(sim::Scheduler& s) : sig(s) {}
  sim::Signal sig;
  bool done = false;
};

sim::Process ack_when_done(dsm::DsmSystem& sys, sim::Process op,
                           dsm::NodeId server, dsm::NodeId client,
                           std::uint32_t reply_bytes,
                           std::shared_ptr<FwdRendezvous> rv,
                           telemetry::SpanContext ctx) {
  co_await op.join();
  sys.send_direct(
      server, client, reply_bytes, "svc-fwd-ack",
      [rv] {
        rv->done = true;
        rv->sig.notify_all();
      },
      ctx, telemetry::SpanKind::kWireDown);
}

/// The traced op in flight on node `n` (invalid when untraced).
telemetry::SpanContext op_ctx(const dsm::DsmSystem& sys, dsm::NodeId n) {
  const auto* trc = sys.tracer();
  return trc != nullptr ? trc->node_ctx(n) : telemetry::SpanContext{};
}

/// Already-completed Process for paths that did all their work
/// synchronously (warm-lease snapshot serves).
sim::Process completed_process() { co_return; }

std::vector<Key> keys_of(const std::vector<std::pair<Key, dsm::Word>>& kvs) {
  std::vector<Key> keys;
  keys.reserve(kvs.size());
  for (const auto& kv : kvs) keys.push_back(kv.first);
  return keys;
}
}  // namespace

ShardedStore::ShardedStore(dsm::DsmSystem& sys, ShardedStoreConfig cfg)
    : sys_(&sys), cfg_(cfg), map_(make_map(cfg)) {
  OPTSYNC_EXPECT(cfg.shards >= 1);
  OPTSYNC_EXPECT(cfg.slots_per_shard >= 1);
  OPTSYNC_EXPECT(cfg.root_stride >= 1);
  txn_stats_.name = "svc.txn";

  // Group membership: every node (full replication, the default) or the
  // server prefix [0, server_nodes). server_nodes covering the whole
  // machine normalizes to full replication — there would be no clients.
  std::uint32_t span = cfg.lease.server_nodes;
  if (span == 0 || span >= sys.node_count()) {
    span = sys.node_count();
    cfg_.lease.server_nodes = 0;
  }
  std::vector<dsm::NodeId> members;
  members.reserve(span);
  for (dsm::NodeId i = 0; i < span; ++i) members.push_back(i);

  // Elastic mode appends dedicated hot groups after the base shards; the
  // base ShardMap never routes to them — only pins do.
  const std::uint32_t total_shards =
      cfg.shards + (cfg.elastic.enabled ? cfg.elastic.hot_groups : 0);

  // Root placement: members[(s * root_stride) % members]. A stride sharing
  // a factor with the member count cycles through only members/gcd distinct
  // nodes — shard roots would silently stack on a few nodes while the rest
  // sit idle. Reject that at construction; an even wrap (stride coprime
  // with the member count) is still allowed when shards > members.
  {
    const std::size_t m = members.size();
    const std::size_t g =
        std::gcd(static_cast<std::size_t>(cfg.root_stride) % m, m);
    const std::size_t distinct = m / g;
    OPTSYNC_EXPECT(distinct == m || total_shards <= distinct);
  }

  if (cfg.elastic.enabled && span == sys.node_count()) {
    // Full replication: directory moves execute on a reserved control node
    // (one instruction stream per node — the Fig. 4 rule); callers must
    // keep regular traffic off it. Partial mode uses proxy chains instead.
    control_node_ = members.back();
  }

  shards_.reserve(total_shards);
  for (std::uint32_t s = 0; s < total_shards; ++s) {
    auto sh = std::make_unique<Shard>();
    sh->root = members[(static_cast<std::size_t>(s) * cfg.root_stride) %
                       members.size()];
    sh->group = sys.create_group(members, sh->root);
    const std::string base = "svc.s" + std::to_string(s);
    const std::uint32_t slots = cfg.slots_per_shard;
    // Stripe locks first, back to back: a shard's locks are one ascending
    // VarId run, above every lower shard's — so one lock-set request per
    // shard, shards ascending, is the global lock order.
    for (std::uint32_t k = 0; k < slots; ++k) {
      sh->locks.push_back(sys.define_lock(
          base + ".k" + std::to_string(k) + ".lock", sh->group));
    }
    sh->stats.name = base + ".lock";
    core::OptimisticMutex::Config mcfg;
    mcfg.lock_stats = &sh->stats;
    for (std::uint32_t k = 0; k < slots; ++k) {
      const std::string slot = base + ".k" + std::to_string(k);
      const dsm::VarId lock = sh->locks[k];
      sh->versions.push_back(
          sys.define_mutex_data(slot + ".ver", sh->group, lock, 0));
      sh->slot_keys.push_back(
          sys.define_mutex_data(slot + ".key", sh->group, lock, 0));
      sh->slot_values.push_back(
          sys.define_mutex_data(slot + ".val", sh->group, lock, 0));
      sh->muxes.push_back(
          std::make_unique<core::OptimisticMutex>(sys, lock, mcfg));
    }
    // Heatmap rows: one per orec stripe, plus the elastic directory stripe
    // (index slots_per_shard) so dir-epoch conflicts land somewhere real.
    sh->stripe_conflicts.assign(slots + 1, 0);
    shards_.push_back(std::move(sh));
  }

  // The txn layer stripes orecs by slot (stripe == slot index), so any
  // committed slot write bumps exactly the orec its readers validated, and
  // stripe k's orec is guarded by stripe k's lock. Elastic fabrics get one
  // extra stripe per site — the DIRECTORY stripe (index slots_per_shard,
  // guarded by stripe 0's lock), bumped only by elastic_reassign, which
  // holds every stripe lock of the shard. OCC writers
  // read it per involved shard, so a directory move dooms transactions
  // speculated against the old epoch without single-key puts (which bump
  // slot stripes constantly) ever inducing a false conflict.
  cfg_.txn.tuning.orec_stripes =
      cfg.slots_per_shard + (cfg.elastic.enabled ? 1 : 0);
  txn_mgr_ = std::make_unique<txn::TxnManager>(sys, cfg_.txn.tuning);
  for (std::uint32_t s = 0; s < total_shards; ++s) {
    Shard& sh = *shards_[s];
    sh.site = txn_mgr_->add_site("svc.s" + std::to_string(s), sh.group,
                                 sh.locks, sh.versions);
    OPTSYNC_ENSURE(sh.site == static_cast<txn::SiteId>(s));
  }

  // Partial replication: stand up the lease tier (after the txn layer, so
  // the orec vars exist to be watched) and the proxy chains.
  if (span < sys.node_count()) {
    lease_mgr_ =
        std::make_unique<LeaseManager>(sys, cfg_.lease, cfg.slots_per_shard);
    for (std::uint32_t s = 0; s < total_shards; ++s) {
      Shard& sh = *shards_[s];
      lease_mgr_->register_shard(s, sh.group, sh.root, sh.slot_keys,
                                 sh.slot_values,
                                 txn_mgr_->orecs().site_vars(sh.site));
    }
    proxies_.resize(sys.node_count());
  }
}

std::size_t ShardedStore::slot_of(Key key) const {
  // Second mix constant decorrelates the slot choice from the shard
  // choice; without it every key of a hash shard would land in one slot.
  return static_cast<std::size_t>(sim::SplitMix64(key ^ 0x510750ull).next() %
                                  cfg_.slots_per_shard);
}

std::optional<dsm::Word> ShardedStore::local_get(dsm::NodeId n,
                                                 Key key) const {
  OPTSYNC_EXPECT(key != 0);
  const Shard& sh = *shards_[map_.shard_of(key)];
  const auto& node = sys_->node(n);
  const std::size_t slot = slot_of(key);
  if (node.read(sh.slot_keys[slot]) == static_cast<dsm::Word>(key)) {
    return node.read(sh.slot_values[slot]);
  }
  return std::nullopt;
}

// --- Client entry points ---------------------------------------------------

sim::Process ShardedStore::read_op(dsm::NodeId n, Key key,
                                   std::optional<dsm::Word>* out,
                                   ConsistencyLevel level) {
  OPTSYNC_EXPECT(key != 0);
  OPTSYNC_EXPECT(out != nullptr);
  if (access_observer_) access_observer_(map_.shard_of(key), key);
  if (is_member(n)) {
    // Members read their local replica at every level — that is
    // eagersharing's contract; consistency levels distinguish clients.
    *out = local_get(n, key);
    co_return;
  }
  const ShardId s = map_.shard_of(key);
  co_await lease_mgr_
      ->client_read(n, s, slot_of(key), key, out,
                    level != ConsistencyLevel::kLinearizable)
      .join();
}

sim::Process ShardedStore::write_op(dsm::NodeId n, Key key, dsm::Word value) {
  OPTSYNC_EXPECT(key != 0);
  if (access_observer_) access_observer_(map_.shard_of(key), key);
  if (!partial()) return put_direct(n, key, value);
  const ShardId s = map_.shard_of(key);
  const dsm::NodeId server = shards_[s]->root;
  const std::uint32_t req = cfg_.lease.ctrl_bytes + cfg_.lease.data_bytes;
  return forward_op(n, s, req, cfg_.lease.ctrl_bytes,
                    [this, server, key, value] {
                      return put_direct(server, key, value);
                    });
}

sim::Process ShardedStore::multi_write_op(
    dsm::NodeId n, std::vector<std::pair<Key, dsm::Word>> kvs, bool add) {
  OPTSYNC_EXPECT(!kvs.empty());
  if (access_observer_) {
    for (const auto& [key, value] : kvs) {
      (void)value;
      access_observer_(map_.shard_of(key), key);
    }
  }
  if (!partial()) return multi_write(n, std::move(kvs), add);
  const ShardId primary = involved_shards(keys_of(kvs)).front();
  const dsm::NodeId server = shards_[primary]->root;
  const auto req = static_cast<std::uint32_t>(
      cfg_.lease.ctrl_bytes + cfg_.lease.data_bytes * kvs.size());
  return forward_op(n, primary, req, cfg_.lease.ctrl_bytes,
                    [this, server, add, kvs = std::move(kvs)]() mutable {
                      return multi_write(server, std::move(kvs), add);
                    });
}

sim::Process ShardedStore::multi_get_op(
    dsm::NodeId n, std::vector<Key> keys,
    std::vector<std::optional<dsm::Word>>* out, ConsistencyLevel level) {
  OPTSYNC_EXPECT(!keys.empty());
  OPTSYNC_EXPECT(out != nullptr);
  if (access_observer_) {
    for (const Key key : keys) access_observer_(map_.shard_of(key), key);
  }
  if (!partial()) return multi_get_direct(n, std::move(keys), out);

  if (!is_member(n) && level != ConsistencyLevel::kLinearizable) {
    // kSnapshot warm path: when EVERY key's stripe holds a valid lease the
    // whole read set is served locally with zero messages. Stripe == orec
    // stripe, so the leased epochs are exactly the orec versions an OCC
    // multi_get would validate; each is within the lease staleness bound.
    bool all_warm = true;
    std::vector<std::vector<std::size_t>> by_shard(shards_.size());
    for (const Key key : keys) {
      by_shard[map_.shard_of(key)].push_back(slot_of(key));
    }
    for (ShardId s = 0; s < shards_.size() && all_warm; ++s) {
      if (!by_shard[s].empty()) {
        all_warm = lease_mgr_->warm(n, s, by_shard[s]);
      }
    }
    if (all_warm) {
      out->assign(keys.size(), std::nullopt);
      for (std::size_t i = 0; i < keys.size(); ++i) {
        lease_mgr_->serve_warm(n, map_.shard_of(keys[i]), slot_of(keys[i]),
                               keys[i], &(*out)[i]);
      }
      return completed_process();
    }
  }

  // Cold (or linearizable, or a member): the full OCC snapshot protocol,
  // executed at the primary shard's root through its proxy chain.
  const ShardId primary = involved_shards(keys).front();
  const dsm::NodeId server = shards_[primary]->root;
  const auto req = static_cast<std::uint32_t>(
      cfg_.lease.ctrl_bytes + cfg_.lease.data_bytes * keys.size());
  const auto reply = static_cast<std::uint32_t>(
      cfg_.lease.ctrl_bytes + cfg_.lease.data_bytes * keys.size());
  return forward_op(n, primary, req, reply,
                    [this, server, out, keys = std::move(keys)]() mutable {
                      return multi_get_direct(server, std::move(keys), out);
                    });
}

// --- partial-replication routing -------------------------------------------

sim::Process ShardedStore::chain_after(sim::Process prev, OpThunk thunk) {
  co_await prev.join();
  co_await thunk().join();
}

sim::Process ShardedStore::enqueue_proxy(dsm::NodeId server, OpThunk thunk) {
  // One mutating instruction stream per node: each proxied op starts only
  // after the previous one completed — the Fig. 4 nesting rule, upheld on
  // root nodes however many clients forward to them.
  ProxySlot& p = proxies_[server];
  p.tail = p.active ? chain_after(p.tail, std::move(thunk)) : thunk();
  p.active = true;
  return p.tail;
}

sim::Process ShardedStore::forward_op(dsm::NodeId n, ShardId primary,
                                      std::uint32_t req_bytes,
                                      std::uint32_t reply_bytes,
                                      OpThunk thunk) {
  const dsm::NodeId server = shards_[primary]->root;
  lease_mgr_->note_forwarded(primary);
  if (n == server) {
    co_await enqueue_proxy(server, std::move(thunk)).join();
    co_return;
  }
  auto rv = std::make_shared<FwdRendezvous>(sys_->scheduler());
  // Both legs carry the forwarding op's context: their flight (and any
  // loss recovery) lands on its trace; the server-side run between them
  // stays the op's own time.
  const telemetry::SpanContext ctx = op_ctx(*sys_, n);
  sys_->send_direct(
      n, server, req_bytes, "svc-fwd",
      [this, n, server, reply_bytes, rv, ctx,
       thunk = std::move(thunk)]() mutable {
        (void)ack_when_done(*sys_, enqueue_proxy(server, std::move(thunk)),
                            server, n, reply_bytes, rv, ctx);
      },
      ctx);
  while (!rv->done) co_await rv->sig.wait();
}

// --- single-key write path -------------------------------------------------

void ShardedStore::write_slot(Shard& sh, dsm::DsmNode& node, Key key,
                              dsm::Word value) {
  const std::size_t slot = slot_of(key);
  node.write(sh.slot_keys[slot], static_cast<dsm::Word>(key));
  node.write(sh.slot_values[slot], value);
  // Every committed slot write bumps its orec stripe, so an OCC reader
  // that validated the stripe sees single-key puts as conflicts too.
  txn_mgr_->orecs().bump(node.id(), sh.site,
                         static_cast<std::uint32_t>(slot));
}

sim::Process ShardedStore::put_direct(dsm::NodeId n, Key key,
                                      dsm::Word value) {
  for (;;) {
    const ShardId sid = map_.shard_of(key);
    Shard& sh = *shards_[sid];
    bool moved = false;
    co_await put_optimistic(sh, sid, n, key, value, &moved).join();
    if (!moved) co_return;
    // The directory reassigned the key between routing and lock grant: the
    // acquired lock was the wrong shard's and nothing was written. Count
    // the re-route against the old owner and retry at the new one.
    ++sh.redirects;
  }
}

sim::Process ShardedStore::put_optimistic(Shard& sh, ShardId sid,
                                          dsm::NodeId n, Key key,
                                          dsm::Word value, bool* moved) {
  // The journal holds exactly what the body writes: the slot's key and
  // value, its orec stripe (write_slot bumps it) and the stripe's version
  // word — every save and restore costs per entry.
  const auto slot = static_cast<std::uint32_t>(slot_of(key));
  core::Section sec;
  sec.shared_writes = {sh.slot_keys[slot], sh.slot_values[slot],
                       txn_mgr_->orecs().var(sh.site, slot),
                       sh.versions[slot]};
  bool wrote = false;
  sec.body = [this, &sh, sid, slot, key, value, moved, &wrote,
              vars = sec.shared_writes](dsm::DsmNode& node) -> sim::Process {
    // Re-checked inside the body: the section may retry after rollback,
    // and the directory can move the key during any wait. The last
    // (committed) execution's verdict is the one that sticks.
    if (cfg_.elastic.enabled && map_.shard_of(key) != sid) {
      if (wrote) {
        // A speculative run wrote the stripe before the key moved. Those
        // writes were filtered at the root only if they arrived before our
        // grant — a retransmitted one can land after it and be sequenced.
        // Republish the rolled-back (authoritative) values under the lock
        // so every member converges on them, not on the abandoned run.
        for (const dsm::VarId v : vars) node.write(v, node.read(v));
      }
      *moved = true;
      co_return;
    }
    *moved = false;
    wrote = true;
    co_await sim::delay(sys_->scheduler(), cfg_.write_compute_ns);
    write_slot(sh, node, key, value);
    const dsm::VarId ver = sh.versions[slot];
    node.write(ver, node.read(ver) + 1);
  };
  co_await sh.muxes[slot]->execute(n, std::move(sec)).join();
  if (!*moved) ++sh.committed;
}

ShardedStore::Footprint ShardedStore::footprint(
    const std::vector<Key>& keys) const {
  std::vector<std::pair<ShardId, std::uint32_t>> stripes;
  stripes.reserve(keys.size());
  for (const Key key : keys) {
    OPTSYNC_EXPECT(key != 0);
    stripes.emplace_back(map_.shard_of(key),
                         static_cast<std::uint32_t>(slot_of(key)));
  }
  std::sort(stripes.begin(), stripes.end());
  stripes.erase(std::unique(stripes.begin(), stripes.end()), stripes.end());
  Footprint fp;
  fp.locks.reserve(stripes.size());
  for (const auto& [s, slot] : stripes) {
    if (fp.ids.empty() || fp.ids.back() != s) {
      fp.ids.push_back(s);
      fp.low.push_back(slot);  // sorted: the shard's first is its lowest
    }
    fp.locks.push_back(shards_[s]->locks[slot]);
  }
  return fp;
}

sim::Process ShardedStore::lock_footprint(
    dsm::NodeId n, const std::vector<Key>* keys, Footprint* fp,
    std::unique_ptr<core::MultiGroupMutex>* mux) {
  *fp = footprint(*keys);
  for (;;) {
    *mux = std::make_unique<core::MultiGroupMutex>(*sys_, fp->locks);
    co_await (*mux)->acquire(n).join();
    if (!cfg_.elastic.enabled) co_return;
    Footprint now = footprint(*keys);
    if (now.locks == fp->locks) co_return;
    // The directory moved a key while we queued: the locks held are the
    // wrong set. Release and chase the new owners.
    (*mux)->release(n);
    *fp = std::move(now);
  }
}

void ShardedStore::bump_ledger(dsm::DsmNode& node, const Footprint& fp) {
  for (std::size_t i = 0; i < fp.ids.size(); ++i) {
    const dsm::VarId ver = shards_[fp.ids[i]]->versions[fp.low[i]];
    node.write(ver, node.read(ver) + 1);
  }
}

std::vector<ShardId> ShardedStore::involved_shards(
    const std::vector<Key>& keys) const {
  std::vector<ShardId> ids;
  ids.reserve(keys.size());
  for (const Key key : keys) {
    OPTSYNC_EXPECT(key != 0);
    ids.push_back(map_.shard_of(key));
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

void ShardedStore::record_txn_flight(sim::Time started, sim::Time acquired) {
  const sim::Time now = sys_->scheduler().now();
  ++txn_stats_.acquisitions;
  txn_stats_.acquire_ns.record(static_cast<std::int64_t>(acquired - started));
  txn_stats_.hold_ns.record(static_cast<std::int64_t>(now - acquired));
}

void ShardedStore::write_step(txn::Txn& t, Shard& sh, std::uint32_t slot,
                              Key key, dsm::Word value, bool add) {
  // Only an add reads the slot. Both its reads are covered by this
  // stripe's write lock at commit, so the add is strictly serializable.
  dsm::Word next = value;
  if (add && txn_mgr_->read_word(t, sh.site, slot, sh.slot_keys[slot]) ==
                 static_cast<dsm::Word>(key)) {
    next += txn_mgr_->read_word(t, sh.site, slot, sh.slot_values[slot]);
  }
  txn_mgr_->write_word(t, sh.site, slot, sh.slot_keys[slot],
                       static_cast<dsm::Word>(key));
  txn_mgr_->write_word(t, sh.site, slot, sh.slot_values[slot], next);
}

sim::Process ShardedStore::multi_write(
    dsm::NodeId n, std::vector<std::pair<Key, dsm::Word>> kvs, bool add) {
  auto& sched = sys_->scheduler();
  const sim::Time started = sched.now();
  const std::vector<Key> keys = keys_of(kvs);
  std::vector<ShardId> ids = involved_shards(keys);
  auto& cm = txn_mgr_->contention();
  // Compute plus undo-journal cost of one key's step, speculative or
  // repaired.
  const sim::Duration per_key =
      cfg_.write_compute_ns + 2 * cfg_.txn.tuning.save_ns_per_var;
  std::uint32_t aborts = 0;
  for (;;) {
    // A directory move between attempts re-homes keys; route each attempt
    // against the live map so retries land on the new owners.
    if (cfg_.elastic.enabled) ids = involved_shards(keys);
    if (cfg_.txn.mode == TxnMode::kLegacy || cm.should_fallback(aborts)) {
      // Legacy mode, or the abort budget is exhausted: go irrevocable. The
      // locked path acquires the same locks in the same ascending order,
      // so progress is guaranteed however hot the keys.
      if (cfg_.txn.mode == TxnMode::kOcc) record_txn_fallback(n, ids, aborts);
      co_await multi_write_locked(n, std::move(kvs), add).join();
      co_return;
    }
    txn::Txn t;
    txn_mgr_->begin(t, n);
    // Each key's stripe as routed for this attempt: the one it speculates
    // on and the commit locks, so a repair re-runs it there.
    std::vector<std::pair<Shard*, std::uint32_t>> at;
    at.reserve(kvs.size());
    for (const Key key : keys) {
      at.emplace_back(shards_[map_.shard_of(key)].get(),
                      static_cast<std::uint32_t>(slot_of(key)));
    }
    // §4 re-execution: a conflict on a stripe an add both reads and writes
    // does not abort the attempt; commit re-runs that stripe's keys under
    // its lock against the committed values. A put reads no slot stripe,
    // so it never has a stale one and the step never fires for it.
    t.repair = [this, &kvs, &at, add, per_key](
                   txn::Txn& tx, const std::vector<txn::StripeRef>& stale) {
      sim::Duration cost = 0;
      for (std::size_t i = 0; i < kvs.size(); ++i) {
        const auto& [sh, slot] = at[i];
        if (std::find(stale.begin(), stale.end(),
                      txn::StripeRef{sh->site, slot}) == stale.end()) {
          continue;
        }
        write_step(tx, *sh, slot, kvs[i].first, kvs[i].second, add);
        cost += per_key;
      }
      return cost;
    };
    if (cfg_.elastic.enabled) {
      // Doomed, not lost: every write reads each involved shard's
      // DIRECTORY orec stripe. elastic_reassign bumps it under the shard
      // locks, so an attempt speculated against the old epoch fails
      // validation instead of publishing to a shard its key has already
      // left — including a key absent from its old owner, which leaves no
      // moved slot behind to bump. The stripe is read, never written, so
      // it stays uncovered (a move aborts, never repairs), and reading it
      // instead of the slot stripes keeps static puts free of false
      // conflicts.
      for (const ShardId s : ids) {
        txn_mgr_->observe(t, shards_[s]->site, cfg_.slots_per_shard);
      }
    }
    const sim::Time spec_began = sched.now();
    for (std::size_t i = 0; i < kvs.size(); ++i) {
      write_step(t, *at[i].first, at[i].second, kvs[i].first, kvs[i].second,
                 add);
    }
    co_await txn_mgr_->speculate_for(
        t, per_key * static_cast<sim::Duration>(kvs.size())).join();
    if (auto* trc = sys_->tracer()) {
      if (const auto ctx = trc->node_ctx(n); ctx.valid()) {
        trc->record_span(ctx.trace, ctx.span, telemetry::SpanKind::kSpeculate,
                         n, spec_began, sched.now());
      }
    }
    txn::TxnManager::CommitResult res;
    co_await txn_mgr_->commit(t, &res).join();
    if (res.committed) {
      for (const ShardId s : ids) {
        ++shards_[s]->committed;
        ++shards_[s]->txn_commits;
      }
      if (res.repaired_stripes > 0) record_txn_repair(n, t.stale, aborts + 1);
      record_txn_flight(started, res.locks_acquired_at);
      co_return;
    }
    ++aborts;
    record_txn_abort(n, res, ids, aborts);
    co_await cm.backoff(n, aborts).join();
  }
}

sim::Process ShardedStore::multi_write_locked(
    dsm::NodeId n, std::vector<std::pair<Key, dsm::Word>> kvs, bool add) {
  auto& sched = sys_->scheduler();
  const sim::Time started = sched.now();
  // The irrevocable path holds the owners' stripe locks across the compute.
  const std::vector<Key> keys = keys_of(kvs);
  Footprint fp;
  std::unique_ptr<core::MultiGroupMutex> mux;
  co_await lock_footprint(n, &keys, &fp, &mux).join();
  const sim::Time acquired = sched.now();
  auto& node = sys_->node(n);
  co_await sim::delay(
      sched, cfg_.write_compute_ns * static_cast<sim::Duration>(kvs.size()));
  for (const auto& [key, value] : kvs) {
    Shard& sh = *shards_[map_.shard_of(key)];
    dsm::Word next = value;
    if (add) {
      const std::size_t slot = slot_of(key);
      if (node.read(sh.slot_keys[slot]) == static_cast<dsm::Word>(key)) {
        next += node.read(sh.slot_values[slot]);
      }
    }
    write_slot(sh, node, key, next);
  }
  // One ledger bump (and one committed section) per involved shard,
  // however many of the transaction's keys and stripes landed on it.
  bump_ledger(node, fp);
  mux->release(n);
  if (auto* trc = sys_->tracer()) {
    if (const auto ctx = trc->node_ctx(n); ctx.valid()) {
      trc->record_span(ctx.trace, ctx.span, telemetry::SpanKind::kCs, n,
                       acquired, sched.now());
    }
  }
  for (const ShardId s : fp.ids) ++shards_[s]->committed;
  record_txn_flight(started, acquired);
}

sim::Process ShardedStore::multi_get_direct(
    dsm::NodeId n, std::vector<Key> keys,
    std::vector<std::optional<dsm::Word>>* out) {
  std::vector<ShardId> ids = involved_shards(keys);
  auto& cm = txn_mgr_->contention();
  auto& node = sys_->node(n);
  std::uint32_t aborts = 0;
  for (;;) {
    if (cfg_.elastic.enabled) ids = involved_shards(keys);
    if (cfg_.txn.mode == TxnMode::kLegacy || cm.should_fallback(aborts)) {
      // Irrevocable snapshot: read under every involved stripe lock.
      if (cfg_.txn.mode == TxnMode::kOcc) record_txn_fallback(n, ids, aborts);
      Footprint fp;
      std::unique_ptr<core::MultiGroupMutex> mux;
      co_await lock_footprint(n, &keys, &fp, &mux).join();
      out->clear();
      for (const Key key : keys) {
        out->push_back(local_get(n, key));
      }
      mux->release(n);
      co_return;
    }
    txn::Txn t;
    txn_mgr_->begin(t, n);
    std::vector<std::optional<dsm::Word>> snap;
    snap.reserve(keys.size());
    for (const Key key : keys) {
      Shard& sh = *shards_[map_.shard_of(key)];
      const auto slot = static_cast<std::uint32_t>(slot_of(key));
      const dsm::Word cur_key =
          txn_mgr_->read_word(t, sh.site, slot, sh.slot_keys[slot]);
      if (cur_key == static_cast<dsm::Word>(key)) {
        snap.emplace_back(node.read(sh.slot_values[slot]));
      } else {
        snap.emplace_back(std::nullopt);
      }
    }
    // Empty write set: commit takes no locks, just validates the read-set
    // orecs and charges the per-entry cost.
    txn::TxnManager::CommitResult res;
    co_await txn_mgr_->commit(t, &res).join();
    if (res.committed) {
      *out = std::move(snap);
      co_return;
    }
    ++aborts;
    record_txn_abort(n, res, ids, aborts);
    co_await cm.backoff(n, aborts).join();
  }
}

// --- elastic fabric --------------------------------------------------------

ShardedStore::Route ShardedStore::route(Key key, std::uint64_t epoch) const {
  Route r;
  r.owner = map_.shard_of(key);
  if (epoch == map_.version()) {
    r.believed = r.owner;
    return r;
  }
  for (auto it = map_history_.rbegin(); it != map_history_.rend(); ++it) {
    if (it->version() == epoch) {
      r.believed = it->shard_of(key);
      r.stale = r.believed != r.owner;
      return r;
    }
  }
  // Epoch aged out of the bounded history: we can't prove the client's
  // routing was right, so force one refresh round trip.
  r.believed = r.owner;
  r.stale = true;
  return r;
}

sim::Process ShardedStore::redirect_probe(dsm::NodeId n, ShardId believed) {
  Shard& sh = *shards_.at(believed);
  ++sh.redirects;
  if (n == sh.root) co_return;
  auto rv = std::make_shared<FwdRendezvous>(sys_->scheduler());
  const telemetry::SpanContext ctx = op_ctx(*sys_, n);
  sys_->send_direct(
      n, sh.root, cfg_.lease.ctrl_bytes, "svc-redirect",
      [this, n, root = sh.root, rv, ctx] {
        sys_->send_direct(
            root, n, cfg_.lease.ctrl_bytes, "svc-redirect-ack",
            [rv] {
              rv->done = true;
              rv->sig.notify_all();
            },
            ctx, telemetry::SpanKind::kWireDown);
      },
      ctx);
  while (!rv->done) co_await rv->sig.wait();
}

void ShardedStore::apply_root_move(ShardId s, dsm::NodeId to) {
  Shard& sh = *shards_.at(s);
  sys_->reroot_group(sh.group, to);
  sh.root = to;
  ++sh.migrations;
  // Lease epochs are root-location independent (keyed per client/stripe);
  // only the directory's notion of where to fetch from changes.
  if (lease_mgr_) lease_mgr_->set_root(s, to);
}

sim::Process ShardedStore::reassign_body(dsm::NodeId exec, ShardId src,
                                         ShardId dst,
                                         std::function<bool(Key)> pred,
                                         std::function<void(ShardMap&)> mutate,
                                         std::uint64_t* moved_slots) {
  OPTSYNC_EXPECT(src != dst);
  auto& sched = sys_->scheduler();
  Shard& from = *shards_[src];
  Shard& to = *shards_[dst];
  // Every stripe lock of both shards (one lock-set request per shard,
  // shards ascending): the move excludes every slot and directory reader
  // of both at once, exactly as the old whole-shard locks did.
  std::vector<dsm::VarId> locks = from.locks;
  locks.insert(locks.end(), to.locks.begin(), to.locks.end());
  core::MultiGroupMutex mux(*sys_, std::move(locks));
  co_await mux.acquire(exec).join();
  auto& node = sys_->node(exec);
  std::uint64_t moved = 0;
  for (std::uint32_t slot = 0; slot < cfg_.slots_per_shard; ++slot) {
    const dsm::Word k = node.read(from.slot_keys[slot]);
    if (k == 0 || !pred(static_cast<Key>(k))) continue;
    const dsm::Word v = node.read(from.slot_values[slot]);
    // slot_of is shard-independent, so the key keeps its slot index (and
    // with it its orec stripe and lease stripe) in the destination.
    node.write(to.slot_keys[slot], k);
    node.write(to.slot_values[slot], v);
    txn_mgr_->orecs().bump(exec, to.site, slot);
    node.write(from.slot_keys[slot], 0);
    node.write(from.slot_values[slot], 0);
    // The vacated slot changed too: an OCC reader holding its pre-move
    // value must revalidate (and re-route) rather than serve a key the
    // shard no longer owns.
    txn_mgr_->orecs().bump(exec, from.site, slot);
    ++moved;
  }
  co_await sim::delay(sched, cfg_.write_compute_ns *
                                 static_cast<sim::Duration>(moved + 1));
  // Bump both DIRECTORY stripes (index slots_per_shard): every OCC writer
  // reads them for its involved shards, so transactions speculated against
  // the old epoch fail validation wherever their keys sat — including keys
  // that were absent and left no moved slot behind. Slot stripes stay
  // untouched unless a slot actually moved, so static traffic never pays a
  // false conflict for the guard.
  txn_mgr_->orecs().bump(exec, from.site, cfg_.slots_per_shard);
  txn_mgr_->orecs().bump(exec, to.site, cfg_.slots_per_shard);
  // One write section per involved shard keeps the serializability ledger
  // exact: the lowest held stripe's version word (stripe 0 — the move
  // holds them all) moves in lockstep with committed counts.
  node.write(from.versions[0], node.read(from.versions[0]) + 1);
  node.write(to.versions[0], node.read(to.versions[0]) + 1);
  ++from.committed;
  ++to.committed;
  // Snapshot the outgoing epoch, then install the new one — still under
  // both shards' locks, so no op ever sees a half-moved directory.
  map_history_.push_back(map_);
  if (map_history_.size() > kMapHistory) {
    map_history_.erase(map_history_.begin());
  }
  mutate(map_);
  mux.release(exec);
  if (moved_slots != nullptr) *moved_slots = moved;
}

sim::Process ShardedStore::elastic_reassign(
    ShardId src, ShardId dst, std::function<bool(Key)> pred,
    std::function<void(ShardMap&)> mutate, std::uint64_t* moved_slots) {
  OPTSYNC_EXPECT(cfg_.elastic.enabled);
  OPTSYNC_EXPECT(src < shards_.size());
  OPTSYNC_EXPECT(dst < shards_.size());
  if (partial()) {
    // Partial mode: every mutation flows through a proxy chain; the move
    // is one more op on the destination root's instruction stream. The
    // closures ride behind a shared_ptr and every owning object here is a
    // named local: GCC 12's coroutine lowering double-destroys init-captures
    // that move from frame parameters inside a co_await full expression,
    // which double-frees the std::function targets.
    const dsm::NodeId exec = shards_[dst]->root;
    auto fns = std::make_shared<
        std::pair<std::function<bool(Key)>, std::function<void(ShardMap&)>>>(
        std::move(pred), std::move(mutate));
    OpThunk thunk = [this, exec, src, dst, fns, moved_slots]() {
      return reassign_body(exec, src, dst, fns->first, fns->second,
                           moved_slots);
    };
    sim::Process queued = enqueue_proxy(exec, std::move(thunk));
    co_await queued.join();
    co_return;
  }
  // Full replication: the reserved control node is the mover's instruction
  // stream (the generator must keep regular traffic off it).
  OPTSYNC_EXPECT(control_node_ != dsm::kNoNode);
  co_await reassign_body(control_node_, src, dst, std::move(pred),
                         std::move(mutate), moved_slots)
      .join();
}

std::uint64_t ShardedStore::migrations(ShardId s) const {
  return shards_.at(s)->migrations;
}

std::uint64_t ShardedStore::splits(ShardId s) const {
  return shards_.at(s)->splits;
}

std::uint64_t ShardedStore::merges(ShardId s) const {
  return shards_.at(s)->merges;
}

std::uint64_t ShardedStore::promotions(ShardId s) const {
  return shards_.at(s)->promotions;
}

std::uint64_t ShardedStore::demotions(ShardId s) const {
  return shards_.at(s)->demotions;
}

std::uint64_t ShardedStore::redirects(ShardId s) const {
  return shards_.at(s)->redirects;
}

void ShardedStore::fill_report(stats::ServiceReport& report) {
  if (report.shards.size() < shards_.size()) {
    report.shards.resize(shards_.size());
  }
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    Shard& sh = *shards_[s];
    auto& entry = report.shards[s];
    entry.shard = s;
    entry.lock_name = sh.stats.name;
    const auto& root = sys_->root_of(sh.group).stats();
    sh.stats.root_speculative_drops = root.speculative_drops;
    entry.lock = sh.stats;
    entry.sequenced = root.sequenced;
    entry.frames = root.frames;
    entry.max_frame_writes = root.max_frame_writes;
    entry.version = version(s);
    entry.committed_writes = sh.committed;
    entry.root_node = sh.root;  // effective placement, post-migration
    entry.migrations = sh.migrations;
    entry.splits = sh.splits;
    entry.merges = sh.merges;
    entry.promotions = sh.promotions;
    entry.demotions = sh.demotions;
    entry.redirects = sh.redirects;
    entry.txn_commits = sh.txn_commits;
    entry.txn_aborts = sh.txn_aborts;
    // Every abort is followed by a retry (or the fallback, which the
    // report counts separately), so the two counts are one.
    entry.txn_retries = sh.txn_aborts;
    entry.txn_fallbacks = sh.txn_fallbacks;
    entry.txn_repairs = sh.txn_repairs;
    entry.aborts_read_clobber = sh.aborts_read_clobber;
    entry.aborts_validation = sh.aborts_validation;
    entry.aborts_dir_epoch = sh.aborts_dir_epoch;
    entry.stripe_conflicts = sh.stripe_conflicts;
    if (lease_mgr_) {
      const auto& c = lease_mgr_->counters(s);
      entry.lease_hits = c.hits;
      entry.lease_grants = c.grants;
      entry.lease_invalidations = c.invalidations;
      entry.remote_reads = c.remote_reads;
      entry.forwarded_ops = c.forwarded;
    }
  }
  report.messages = sys_->network().stats().messages;
  report.faults = stats::collect_fault_report(sys_->network().stats(),
                                              sys_->reliable().stats());
}

void ShardedStore::register_telemetry(telemetry::Sampler& sampler,
                                      const stats::ServiceReport& live) {
  sampler.set_help("optsync_shard_backlog",
                   "Requests issued but not yet completed, per shard");
  sampler.set_help("optsync_lock_queue",
                   "Waiters queued on the shard's stripe locks at its root");
  sampler.set_help("optsync_frame_pending",
                   "Speculative write frames pending at the shard root");
  sampler.set_help("optsync_shard_goodput_rps",
                   "Completed requests per second, per shard");
  sampler.set_help("optsync_messages_per_s",
                   "Network messages per second across all nodes");
  sampler.set_help("optsync_retransmits_per_s",
                   "Reliable-channel retransmits per second");
  sampler.set_help("optsync_txn_commits_per_s",
                   "OCC transaction commits per second");
  sampler.set_help("optsync_txn_aborts_per_s",
                   "OCC transaction aborts per second (all reasons)");
  sampler.set_help("optsync_lease_hits_per_s",
                   "Reads served locally from a valid lease, per second");
  sampler.set_help("optsync_lease_invalidations_per_s",
                   "Lease invalidation round trips per second");
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    Shard* sh = shards_[s].get();
    const telemetry::Labels labels{{"shard", std::to_string(s)}};
    sampler.add_gauge("optsync_shard_backlog", labels, [&live, s] {
      if (s >= live.shards.size()) return 0.0;
      std::uint64_t issued = 0;
      std::uint64_t completed = 0;
      for (const auto& o : live.shards[s].ops) {
        issued += o.issued;
        completed += o.completed;
      }
      return static_cast<double>(issued) - static_cast<double>(completed);
    });
    sampler.add_gauge("optsync_lock_queue", labels, [this, sh] {
      const auto& root = sys_->root_of(sh->group);
      std::size_t waiters = 0;
      for (const dsm::VarId l : sh->locks) {
        waiters += root.lock_state(l).queue.size();
      }
      return static_cast<double>(waiters);
    });
    sampler.add_gauge("optsync_frame_pending", labels, [this, sh] {
      return static_cast<double>(sys_->root_of(sh->group).pending_writes());
    });
    sampler.add_rate("optsync_shard_goodput_rps", labels, [&live, s] {
      if (s >= live.shards.size()) return 0.0;
      std::uint64_t completed = 0;
      for (const auto& o : live.shards[s].ops) completed += o.completed;
      return static_cast<double>(completed);
    });
  }
  sampler.add_rate("optsync_messages_per_s", {}, [this] {
    return static_cast<double>(sys_->network().stats().messages);
  });
  sampler.add_rate("optsync_retransmits_per_s", {}, [this] {
    return static_cast<double>(sys_->reliable().stats().retransmits);
  });
  sampler.add_rate("optsync_txn_commits_per_s", {}, [this] {
    return static_cast<double>(txn_mgr_->commits());
  });
  sampler.add_rate("optsync_txn_aborts_per_s", {}, [this] {
    return static_cast<double>(txn_mgr_->aborts());
  });
  if (lease_mgr_) {
    sampler.add_rate("optsync_lease_hits_per_s", {}, [this] {
      double v = 0.0;
      for (std::uint32_t s = 0; s < shards_.size(); ++s) {
        v += static_cast<double>(lease_mgr_->counters(s).hits);
      }
      return v;
    });
    sampler.add_rate("optsync_lease_invalidations_per_s", {}, [this] {
      double v = 0.0;
      for (std::uint32_t s = 0; s < shards_.size(); ++s) {
        v += static_cast<double>(lease_mgr_->counters(s).invalidations);
      }
      return v;
    });
  }
}

bool ShardedStore::replicas_converged() const {
  for (const auto& shp : shards_) {
    const Shard& sh = *shp;
    const auto& members = sys_->group(sh.group).members();
    std::vector<dsm::VarId> vars = sh.slot_keys;
    vars.insert(vars.end(), sh.slot_values.begin(), sh.slot_values.end());
    const auto& orec_vars = txn_mgr_->orecs().site_vars(sh.site);
    vars.insert(vars.end(), orec_vars.begin(), orec_vars.end());
    vars.insert(vars.end(), sh.versions.begin(), sh.versions.end());
    for (const dsm::VarId v : vars) {
      const dsm::Word expect = sys_->node(members[0]).read(v);
      for (const dsm::NodeId m : members) {
        if (sys_->node(m).read(v) != expect) return false;
      }
    }
  }
  return true;
}

dsm::VarId ShardedStore::lock_var(ShardId s, std::size_t stripe) const {
  return shards_.at(s)->locks.at(stripe);
}

dsm::GroupId ShardedStore::group_of(ShardId s) const {
  return shards_.at(s)->group;
}

dsm::NodeId ShardedStore::root_of(ShardId s) const {
  return shards_.at(s)->root;
}

std::uint64_t ShardedStore::committed_writes(ShardId s) const {
  return shards_.at(s)->committed;
}

dsm::Word ShardedStore::version(ShardId s) const {
  const Shard& sh = *shards_.at(s);
  const auto& node = sys_->node(sh.root);
  dsm::Word sum = 0;
  for (const dsm::VarId v : sh.versions) sum += node.read(v);
  return sum;
}

const stats::LockStats& ShardedStore::lock_stats(ShardId s) const {
  return shards_.at(s)->stats;
}

std::uint64_t ShardedStore::txn_commits(ShardId s) const {
  return shards_.at(s)->txn_commits;
}

std::uint64_t ShardedStore::txn_aborts(ShardId s) const {
  return shards_.at(s)->txn_aborts;
}

std::uint64_t ShardedStore::txn_fallbacks(ShardId s) const {
  return shards_.at(s)->txn_fallbacks;
}

std::uint64_t ShardedStore::txn_repairs(ShardId s) const {
  return shards_.at(s)->txn_repairs;
}

std::uint64_t ShardedStore::aborts_read_clobber(ShardId s) const {
  return shards_.at(s)->aborts_read_clobber;
}

std::uint64_t ShardedStore::aborts_validation(ShardId s) const {
  return shards_.at(s)->aborts_validation;
}

std::uint64_t ShardedStore::aborts_dir_epoch(ShardId s) const {
  return shards_.at(s)->aborts_dir_epoch;
}

const std::vector<std::uint64_t>& ShardedStore::stripe_conflicts(
    ShardId s) const {
  return shards_.at(s)->stripe_conflicts;
}

void ShardedStore::record_txn_abort(dsm::NodeId n,
                                    const txn::TxnManager::CommitResult& res,
                                    const std::vector<ShardId>& ids,
                                    std::uint32_t attempt) {
  // Conflict location: the doom site for clobber aborts, the first failing
  // read-set entry for validation aborts (site id == shard id). A result
  // without attribution — possible only if an abort path predates the
  // conflict plumbing — falls back to the first involved shard, stripe 0.
  const ShardId conflict_shard =
      res.has_conflict ? static_cast<ShardId>(res.conflict_site) : ids.front();
  const std::uint32_t stripe = res.has_conflict ? res.conflict_stripe : 0;
  // Directory-epoch aborts are conflicts ON the directory stripe — the
  // reserved orec at index slots_per_shard that only elastic_reassign
  // bumps — whether the kill arrived as a clobber doom or as commit-time
  // validation.
  telemetry::AbortReason reason;
  if (res.has_conflict && stripe == cfg_.slots_per_shard) {
    reason = telemetry::AbortReason::kDirectoryEpoch;
  } else if (res.doomed_at_commit) {
    reason = telemetry::AbortReason::kReadSetClobber;
  } else {
    reason = telemetry::AbortReason::kCommitValidation;
  }
  for (const ShardId s : ids) {
    Shard& sh = *shards_[s];
    ++sh.txn_aborts;
    switch (reason) {
      case telemetry::AbortReason::kReadSetClobber:
        ++sh.aborts_read_clobber;
        break;
      case telemetry::AbortReason::kCommitValidation:
        ++sh.aborts_validation;
        break;
      case telemetry::AbortReason::kDirectoryEpoch:
        ++sh.aborts_dir_epoch;
        break;
      case telemetry::AbortReason::kFallbackEscalation:
        break;  // unreachable: not an abort reason here
    }
  }
  Shard& at = *shards_.at(conflict_shard);
  if (stripe < at.stripe_conflicts.size()) ++at.stripe_conflicts[stripe];
  if (auto* j = sys_->journal()) {
    const dsm::NodeId owner = res.conflict_origin != dsm::kNoNode
                                  ? res.conflict_origin
                                  : at.root;
    j->txn_abort(sys_->scheduler().now(), reason, n, conflict_shard, stripe,
                 owner, attempt);
  }
}

void ShardedStore::record_txn_repair(dsm::NodeId n,
                                     const std::vector<txn::StripeRef>& stale,
                                     std::uint32_t attempt) {
  // One repair per shard that owned a stale stripe (site id == shard id).
  std::vector<txn::SiteId> counted;
  for (const auto& [site, stripe] : stale) {
    if (std::find(counted.begin(), counted.end(), site) != counted.end()) {
      continue;
    }
    counted.push_back(site);
    ++shards_[site]->txn_repairs;
  }
  if (auto* j = sys_->journal()) {
    j->txn_repair(sys_->scheduler().now(), n, stale.front().first,
                  stale.front().second, attempt,
                  static_cast<std::uint32_t>(stale.size()));
  }
}

void ShardedStore::record_txn_fallback(dsm::NodeId n,
                                       const std::vector<ShardId>& ids,
                                       std::uint32_t attempts) {
  txn_mgr_->contention().note_fallback();
  for (const ShardId s : ids) ++shards_[s]->txn_fallbacks;
  auto* j = sys_->journal();
  if (j == nullptr) return;
  // One escalation record per involved set; the deepest shard id is as
  // arbitrary as any — record the first (lowest) for determinism.
  j->txn_abort(sys_->scheduler().now(),
               telemetry::AbortReason::kFallbackEscalation, n, ids.front(),
               0, shards_[ids.front()]->root, attempts);
}

}  // namespace optsync::shard
