#include "txn/txn.hpp"

#include <algorithm>

#include "simkern/assert.hpp"
#include "telemetry/tracer.hpp"

namespace optsync::txn {

TxnManager::TxnManager(dsm::DsmSystem& sys, TxnConfig cfg)
    : sys_(&sys),
      cfg_(cfg),
      orecs_(sys, cfg.orec_stripes),
      cm_(sys, cfg.contention) {}

SiteId TxnManager::add_site(const std::string& name, dsm::GroupId g,
                            std::vector<dsm::VarId> locks,
                            std::vector<dsm::VarId> versions) {
  OPTSYNC_EXPECT(!locks.empty());
  OPTSYNC_EXPECT(versions.size() == locks.size());
  for (std::size_t i = 0; i < locks.size(); ++i) {
    OPTSYNC_EXPECT(sys_->var(locks[i]).kind == dsm::VarKind::kLock);
    OPTSYNC_EXPECT(sys_->var(locks[i]).group == g);
    OPTSYNC_EXPECT(i == 0 || locks[i - 1] < locks[i]);
  }
  for (const Site& other : sites_) {
    OPTSYNC_EXPECT(locks.back() < other.locks.front() ||
                   locks.front() > other.locks.back());
  }
  const SiteId id = orecs_.add_site(name, g, locks);
  sites_.push_back(Site{g, std::move(locks), std::move(versions)});
  OPTSYNC_ENSURE(static_cast<SiteId>(sites_.size() - 1) == id);
  return id;
}

void TxnManager::begin(Txn& t, dsm::NodeId n) {
  // One transaction per node: the node is one instruction stream, and the
  // clobber handler resolves its target through the per-node slot.
  OPTSYNC_EXPECT(active_.find(n) == active_.end());
  t = Txn{};
  t.node = n;
  t.active = true;
  t.began = sys_->scheduler().now();
  active_[n] = &t;
  ++begun_;
}

void TxnManager::observe(Txn& t, SiteId site, std::uint32_t stripe) {
  OPTSYNC_EXPECT(t.active);
  for (const auto& r : t.reads) {
    if (r.site == site && r.stripe == stripe) return;
  }
  t.reads.push_back(Txn::ReadEntry{site, stripe,
                                   orecs_.version(t.node, site, stripe)});
}

dsm::Word TxnManager::read_word(Txn& t, SiteId site, std::uint32_t stripe,
                                dsm::VarId v) {
  observe(t, site, stripe);
  // Read-your-own-writes: a pending speculative value shadows the local
  // replica (which a tolerated write-write clobber may have overwritten).
  for (const auto& u : t.undo) {
    if (u.var == v) return u.after;
  }
  if (t.repair && std::find(t.watched.begin(), t.watched.end(), v) ==
                      t.watched.end()) {
    arm_clobber(t, site, stripe, v);
    t.watched.push_back(v);
  }
  return sys_->node(t.node).read(v);
}

dsm::Word TxnManager::committed_word(const Txn& t, dsm::VarId v) const {
  for (const auto& u : t.undo) {
    if (u.var == v) return u.before;
  }
  return sys_->node(t.node).read(v);
}

bool TxnManager::repairable(const Txn& t, SiteId site, std::uint32_t stripe) {
  return t.repair &&
         std::find(t.write_stripes.begin(), t.write_stripes.end(),
                   StripeRef{site, stripe}) != t.write_stripes.end();
}

void TxnManager::mark_stale(Txn& t, SiteId site, std::uint32_t stripe) {
  const StripeRef ref{site, stripe};
  if (std::find(t.stale.begin(), t.stale.end(), ref) == t.stale.end()) {
    t.stale.push_back(ref);
  }
}

void TxnManager::arm_clobber(Txn& t, SiteId site, std::uint32_t stripe,
                             dsm::VarId v) {
  sys_->node(t.node).arm_interrupt(
      v, [this, n = t.node, site, stripe](dsm::VarId var, dsm::Word value,
                                          dsm::NodeId origin) {
        // A sequenced foreign write landed in our write-set: some other
        // transaction committed a conflicting update. The applied value is
        // the group's authoritative state — record it as the entry's new
        // restore image (an abort must converge on it, not on the stale
        // pre-image). Whether the clobber KILLS us depends on what we did
        // with the variable: a blind write survives (our publish will
        // overwrite it under the stripe locks — strict two-phase locking at
        // commit keeps write-write races serializable). A clobber on a
        // stripe this transaction READ invalidates the speculation built on
        // it: a covered stripe with a repair step is marked stale (commit
        // re-runs it under the lock); any other read stripe dooms us.
        // (Self-echoes never reach here: hardware blocking drops them
        // before the interrupt.)
        auto it = active_.find(n);
        if (it != active_.end() && origin != n) {
          Txn& txn = *it->second;
          for (auto& u : txn.undo) {
            if (u.var == var) {
              u.clobbered = true;
              u.before = value;
              break;
            }
          }
          for (const auto& r : txn.reads) {
            if (r.site == site && r.stripe == stripe) {
              if (repairable(txn, site, stripe)) {
                mark_stale(txn, site, stripe);
                break;
              }
              txn.doomed = true;
              if (!txn.doom_known) {
                // First doom wins: this is the conflict that killed us.
                txn.doom_known = true;
                txn.doom_site = site;
                txn.doom_stripe = stripe;
                txn.doom_origin = origin;
                // Cut short any speculative compute in flight.
                if (const auto sig = doom_signals_.find(n);
                    sig != doom_signals_.end()) {
                  sig->second->notify_all();
                }
              }
              break;
            }
          }
          ++clobbers_;
        }
        sys_->node(n).resume_insharing();
      });
}

void TxnManager::write_word(Txn& t, SiteId site, std::uint32_t stripe,
                            dsm::VarId v, dsm::Word value) {
  OPTSYNC_EXPECT(t.active);
  // A doomed transaction stops speculating: it is headed for abort, and
  // every further poke is work the rollback would just undo.
  if (t.doomed) return;
  auto& node = sys_->node(t.node);
  for (auto& u : t.undo) {
    if (u.var == v) {
      u.after = value;
      node.poke(v, value);
      return;
    }
  }
  t.undo.push_back(
      Txn::UndoEntry{v, node.read(v), value, false, StripeRef{site, stripe}});
  arm_clobber(t, site, stripe, v);
  node.poke(v, value);
  if (std::find(t.write_stripes.begin(), t.write_stripes.end(),
                std::make_pair(site, stripe)) == t.write_stripes.end()) {
    t.write_stripes.emplace_back(site, stripe);
  }
  if (std::find(t.write_sites.begin(), t.write_sites.end(), site) ==
      t.write_sites.end()) {
    t.write_sites.push_back(site);
  }
}

sim::Signal& TxnManager::doom_signal(dsm::NodeId n) {
  auto& slot = doom_signals_[n];
  if (!slot) slot = std::make_unique<sim::Signal>(sys_->scheduler());
  return *slot;
}

sim::Process TxnManager::speculate_for(Txn& t, sim::Duration d) {
  OPTSYNC_EXPECT(t.active);
  if (t.doomed || d == 0) co_return;
  auto& sched = sys_->scheduler();
  sim::Signal& sig = doom_signal(t.node);
  bool elapsed = false;
  const sim::EventId timer = sched.after(d, [&sig, &elapsed] {
    elapsed = true;
    sig.notify_all();
  });
  while (!elapsed && !t.doomed) co_await sig.wait();
  if (!elapsed) sched.cancel(timer);
}

void TxnManager::note_doom_conflict(const Txn& t, CommitResult* out) {
  if (!t.doom_known) return;
  out->has_conflict = true;
  out->conflict_site = t.doom_site;
  out->conflict_stripe = t.doom_stripe;
  out->conflict_origin = t.doom_origin;
}

void TxnManager::finish(Txn& t) {
  for (const auto& u : t.undo) {
    sys_->node(t.node).disarm_interrupt(u.var);
  }
  for (const dsm::VarId v : t.watched) {
    sys_->node(t.node).disarm_interrupt(v);
  }
  active_.erase(t.node);
  t.active = false;
}

sim::Process TxnManager::commit(Txn& t, CommitResult* out) {
  OPTSYNC_EXPECT(t.active);
  OPTSYNC_EXPECT(out != nullptr);
  *out = CommitResult{};
  auto& sched = sys_->scheduler();
  auto& node = sys_->node(t.node);
  auto* trc = sys_->tracer();

  // Fast abort: a clobber interrupt already doomed this transaction, so
  // validation cannot succeed. Abort before touching any lock — a doomed
  // transaction must not add hold time to the very locks it lost the
  // race on.
  if (t.doomed) {
    out->doomed_at_commit = true;
    note_doom_conflict(t, out);
    ++aborts_;
    co_await abort_impl(t).join();
    co_return;
  }

  // Canonical lock order: ascending lock VarId — the same global order
  // MultiGroupMutex acquires in, so the optimistic commit path and the
  // irrevocable fallback can never deadlock against each other. Each
  // write-site's stripe locks go out as ONE lock-set request (site lock
  // ranges never interleave, so per-site sets in site order ARE the
  // ascending order).
  struct SiteSet {
    SiteId site;
    std::vector<dsm::VarId> locks;  ///< ascending
    std::size_t low;                ///< lowest lock index held (ledger)
  };
  std::vector<SiteSet> sets;
  sets.reserve(t.write_sites.size());
  for (const SiteId s : t.write_sites) {
    const Site& site = sites_[s];
    std::vector<std::size_t> idx;
    for (const auto& [ws, stripe] : t.write_stripes) {
      if (ws == s) idx.push_back(stripe_lock_index(stripe, site.locks.size()));
    }
    std::sort(idx.begin(), idx.end());
    idx.erase(std::unique(idx.begin(), idx.end()), idx.end());
    SiteSet set{s, {}, idx.front()};
    set.locks.reserve(idx.size());
    for (const std::size_t i : idx) set.locks.push_back(site.locks[i]);
    sets.push_back(std::move(set));
  }
  std::sort(sets.begin(), sets.end(), [](const SiteSet& a, const SiteSet& b) {
    return a.locks.front() < b.locks.front();
  });
  for (const SiteSet& set : sets) {
    co_await sync::acquire_lock_set(*sys_, t.node, set.locks).join();
  }
  out->locks_acquired_at = sets.empty() ? 0 : sched.now();

  // Validate. Grant-follows-data: with every write lock held, all orec
  // bumps sequenced before our grants have applied locally, so the local
  // orec replica is the owning roots' view for the locked sites.
  const sim::Time validate_began = sched.now();
  const auto entries = t.reads.size() + t.write_stripes.size();
  if (entries > 0) {
    co_await sim::delay(sched, cfg_.validate_ns_per_entry *
                                   static_cast<sim::Duration>(entries));
  }
  // A moved orec on a covered stripe is a conflict the repair step can
  // absorb: we hold the stripe's lock, so its state is final until we
  // release.
  for (const auto& r : t.reads) {
    if (orecs_.version(t.node, r.site, r.stripe) != r.observed &&
        repairable(t, r.site, r.stripe)) {
      mark_stale(t, r.site, r.stripe);
    }
  }
  if (trc != nullptr) {
    if (const auto ctx = trc->node_ctx(t.node); ctx.valid()) {
      trc->record_span(ctx.trace, ctx.span, telemetry::SpanKind::kValidate,
                       t.node, validate_began, sched.now());
    }
  }
  if (!t.doomed && !t.stale.empty()) {
    const sim::Time repair_began = sched.now();
    out->repaired_stripes = static_cast<std::uint32_t>(t.stale.size());
    if (const sim::Duration d = run_repair(t); d > 0) {
      co_await sim::delay(sched, d);
    }
    if (trc != nullptr) {
      if (const auto ctx = trc->node_ctx(t.node); ctx.valid()) {
        trc->record_span(ctx.trace, ctx.span, telemetry::SpanKind::kCs,
                         t.node, repair_began, sched.now());
      }
    }
  }

  // Uncovered reads are checked last, right before the publish, so the
  // repair time does not widen their validation window.
  bool ok = !t.doomed;
  if (!ok) {
    out->doomed_at_commit = true;
    note_doom_conflict(t, out);
  }
  if (ok) {
    for (const auto& r : t.reads) {
      if (orecs_.version(t.node, r.site, r.stripe) != r.observed &&
          !repairable(t, r.site, r.stripe)) {
        ok = false;
        out->validation_failed = true;
        // The moved orec is the conflict; the committer that bumped it is
        // anonymous here (only the version is replicated).
        out->has_conflict = true;
        out->conflict_site = r.site;
        out->conflict_stripe = r.stripe;
        ++validation_failures_;
        break;
      }
    }
  }

  if (ok) {
    // Publish through the normal sequenced path: we hold every involved
    // stripe lock, so the roots accept the writes and GWC carries them
    // (and the orec/ledger bumps behind them) to every member in one order.
    for (const auto& u : t.undo) node.write(u.var, u.after);
    for (const auto& [site, stripe] : t.write_stripes) {
      orecs_.bump(t.node, site, stripe);
    }
    for (const SiteSet& set : sets) {
      const dsm::VarId ver = sites_[set.site].versions[set.low];
      node.write(ver, node.read(ver) + 1);
    }
  }
  for (auto it = sets.rbegin(); it != sets.rend(); ++it) {
    sync::release_lock_set(*sys_, t.node, it->locks);
  }

  if (ok) {
    t.undo.clear();  // discard — nothing to restore
    finish(t);
    ++commits_;
    if (out->repaired_stripes > 0) ++repairs_;
    out->committed = true;
  } else {
    ++aborts_;
    co_await abort_impl(t).join();
  }
}

sim::Duration TxnManager::run_repair(Txn& t) {
  auto& node = sys_->node(t.node);
  for (auto& u : t.undo) {
    if (std::find(t.stale.begin(), t.stale.end(), u.stripe) == t.stale.end()) {
      continue;
    }
    u.after = u.before;
    node.poke(u.var, u.before);
  }
  // The repair must stay inside the locked footprint: a new write stripe
  // would publish under a lock this commit never took.
  const std::size_t footprint = t.write_stripes.size();
  const sim::Duration cost = t.repair(t, t.stale);
  OPTSYNC_ENSURE(t.write_stripes.size() == footprint);
  return cost;
}

sim::Process TxnManager::abort(Txn& t) {
  OPTSYNC_EXPECT(t.active);
  ++aborts_;
  return abort_impl(t);
}

sim::Process TxnManager::abort_impl(Txn& t) {
  auto& sched = sys_->scheduler();
  auto& node = sys_->node(t.node);
  const sim::Time began = sched.now();
  if (!t.undo.empty()) {
    co_await sim::delay(sched, cfg_.restore_ns_per_var *
                                   static_cast<sim::Duration>(t.undo.size()));
  }
  // Restore in reverse journal order. For clobbered entries `before` is
  // the latest foreign sequenced value (authoritative — the clobber
  // handler keeps it current), so restoring converges every entry whether
  // or not a conflicting commit overwrote it; the interrupts stay armed
  // through the delay above so a commit landing mid-abort still refreshes
  // its entry before we restore it.
  for (auto it = t.undo.rbegin(); it != t.undo.rend(); ++it) {
    node.poke(it->var, it->before);
  }
  if (auto* trc = sys_->tracer()) {
    if (const auto ctx = trc->node_ctx(t.node); ctx.valid()) {
      trc->record_span(ctx.trace, ctx.span, telemetry::SpanKind::kRollback,
                       t.node, began, sched.now());
    }
  }
  finish(t);
}

}  // namespace optsync::txn
