#include "shard/lease.hpp"

#include <algorithm>

#include "simkern/assert.hpp"
#include "telemetry/journal.hpp"
#include "telemetry/tracer.hpp"

namespace optsync::shard {

// --- StaleReadAuditor ------------------------------------------------------

void StaleReadAuditor::on_invalidation(dsm::NodeId node, ShardId shard,
                                       std::uint32_t stripe,
                                       std::uint64_t epoch) {
  std::uint64_t& hw = highwater_[slot_key(node, shard, stripe)];
  hw = std::max(hw, epoch);
}

void StaleReadAuditor::on_serve(dsm::NodeId node, ShardId shard,
                                std::uint32_t stripe, std::uint64_t epoch,
                                sim::Time now, sim::Time expiry) {
  ++checks_;
  const auto it = highwater_.find(slot_key(node, shard, stripe));
  if (it != highwater_.end() && epoch < it->second) {
    // The client was already delivered an invalidation superseding this
    // epoch — serving it now reads a version the client knows is dead.
    ++violations_;
    ++stale_;
  }
  if (now > expiry) {
    ++violations_;
    ++expired_;
  }
}

std::string StaleReadAuditor::report() const {
  return "stale-read audit: " + std::to_string(checks_) + " serves, " +
         std::to_string(violations_) + " violations (" +
         std::to_string(stale_) + " superseded, " + std::to_string(expired_) +
         " past TTL)";
}

// --- LeaseManager ----------------------------------------------------------

LeaseManager::LeaseManager(dsm::DsmSystem& sys, LeaseConfig cfg,
                           std::uint32_t slots_per_shard)
    : sys_(&sys), cfg_(cfg), slots_(slots_per_shard) {
  OPTSYNC_EXPECT(cfg_.stripe_width >= 1);
  stripes_ = (slots_ + cfg_.stripe_width - 1) / cfg_.stripe_width;
  cache_.resize(sys.node_count());
  svc_clear_.assign(sys.node_count(), 0);
}

sim::Duration LeaseManager::serve_delay(dsm::NodeId root) {
  const sim::Time now = sys_->scheduler().now();
  sim::Time& clear = svc_clear_[root];
  const sim::Time start = now > clear ? now : clear;
  clear = start + cfg_.root_service_ns;
  return clear - now;
}

void LeaseManager::register_shard(ShardId shard, dsm::GroupId group,
                                  dsm::NodeId root,
                                  const std::vector<dsm::VarId>& slot_keys,
                                  const std::vector<dsm::VarId>& slot_values,
                                  const std::vector<dsm::VarId>& orec_vars) {
  OPTSYNC_EXPECT(slot_keys.size() == slots_ && slot_values.size() == slots_);
  // Per-slot stripes map 1:1; elastic mode appends one extra directory
  // stripe (it guards routing, not a slot) which the lease tier ignores.
  OPTSYNC_EXPECT(orec_vars.size() >= slots_);
  if (dirs_.size() <= shard) dirs_.resize(shard + 1);
  auto dir = std::make_unique<ShardDir>();
  dir->shard = shard;
  dir->group = group;
  dir->root = root;
  dir->slot_key.assign(slots_, 0);
  dir->slot_val.assign(slots_, 0);
  dir->epoch.assign(stripes_, 0);
  dir->holder.resize(stripes_);
  for (std::uint32_t i = 0; i < slots_; ++i) {
    roles_[slot_keys[i]] = VarRole{shard, Role::kSlotKey, i};
    roles_[slot_values[i]] = VarRole{shard, Role::kSlotValue, i};
    roles_[orec_vars[i]] = VarRole{shard, Role::kOrec, i};
  }
  ShardDir* raw = dir.get();
  dirs_[shard] = std::move(dir);
  sys_->root_of(group).set_frame_observer(
      [this, raw](const dsm::Frame& frame) { on_flush(*raw, frame); });
}

void LeaseManager::on_flush(ShardDir& dir, const dsm::Frame& frame) {
  // Pass 1: fold the frame into the authoritative table and advance the
  // epochs of every stripe whose orec it bumps. Lock words (grants riding
  // the frame) have no lease role and fall through untouched — a grant
  // never supersedes data, so it must not revoke anything.
  std::vector<std::uint32_t> dirty;
  for (const dsm::SequencedWrite& w : frame.writes) {
    const auto it = roles_.find(w.var);
    if (it == roles_.end()) continue;
    const VarRole& r = it->second;
    switch (r.role) {
      case Role::kSlotKey:
        dir.slot_key[r.index] = w.value;
        break;
      case Role::kSlotValue:
        dir.slot_val[r.index] = w.value;
        break;
      case Role::kOrec: {
        const std::uint32_t ls = stripe_of(r.index);
        ++dir.epoch[ls];
        if (std::find(dirty.begin(), dirty.end(), ls) == dirty.end()) {
          dirty.push_back(ls);
        }
        break;
      }
    }
  }
  if (dirty.empty()) return;

  // Pass 2: revoke. Expired holders are pruned without a message (their
  // lease self-revoked at its TTL). Live holders behind the new epoch get
  // an update-carrying invalidation — this is eagersharing extended to the
  // client tier: the same flush that multicasts the frame to the group
  // members ships each leaseholder the stripe's new content, so the holder
  // stays a holder at the new epoch (until its TTL) instead of paying a
  // re-grant round trip for every hot-key write.
  const sim::Time now = sys_->scheduler().now();
  std::vector<std::pair<dsm::NodeId, std::uint32_t>> revoked;
  for (const std::uint32_t ls : dirty) {
    auto& holders = dir.holder[ls];
    for (std::size_t i = 0; i < holders.size();) {
      if (holders[i].expiry <= now) {
        if (auto* j = sys_->journal()) {
          j->lease_expiry(now, holders[i].node, dir.shard, ls,
                          holders[i].epoch);
        }
        holders[i] = holders.back();
        holders.pop_back();
        continue;
      }
      if (holders[i].epoch < dir.epoch[ls]) {
        revoked.emplace_back(holders[i].node, ls);
        if (auto* j = sys_->journal()) {
          j->lease_invalidation(now, holders[i].node, dir.shard, ls,
                                holders[i].epoch, dir.epoch[ls]);
        }
        holders[i].epoch = dir.epoch[ls];
      }
      ++i;
    }
  }
  if (!revoked.empty()) send_invalidations(dir, revoked);
}

void LeaseManager::send_invalidations(
    ShardDir& dir,
    const std::vector<std::pair<dsm::NodeId, std::uint32_t>>& revoked) {
  // One message per holder, listing every stripe this flush revoked for it
  // — the invalidation batches exactly as the frame batched.
  std::vector<dsm::NodeId> nodes;
  for (const auto& [node, ls] : revoked) {
    (void)ls;
    if (std::find(nodes.begin(), nodes.end(), node) == nodes.end()) {
      nodes.push_back(node);
    }
  }
  for (const dsm::NodeId node : nodes) {
    struct Record {
      std::uint32_t ls;
      std::uint64_t epoch;
      std::vector<dsm::Word> ks;
      std::vector<dsm::Word> vs;
    };
    std::vector<Record> records;
    for (const auto& [n, ls] : revoked) {
      if (n != node) continue;
      const std::size_t lo = static_cast<std::size_t>(ls) * cfg_.stripe_width;
      const std::size_t hi =
          std::min<std::size_t>(lo + cfg_.stripe_width, slots_);
      records.push_back(Record{
          ls, dir.epoch[ls],
          std::vector<dsm::Word>(dir.slot_key.begin() + lo,
                                 dir.slot_key.begin() + hi),
          std::vector<dsm::Word>(dir.slot_val.begin() + lo,
                                 dir.slot_val.begin() + hi)});
    }
    dir.counters.invalidations += records.size();
    std::uint32_t bytes = cfg_.inval_base_bytes;
    for (const Record& r : records) {
      bytes += cfg_.inval_stripe_bytes +
               cfg_.data_bytes * static_cast<std::uint32_t>(r.ks.size());
    }
    sys_->send_direct(
        dir.root, node, bytes, "lease-inval",
        [this, node, shard = dir.shard, records = std::move(records)] {
          for (const Record& r : records) {
            auditor_.on_invalidation(node, shard, r.ls, r.epoch);
            StripeLease& lease = cache_[node][cache_key(shard, r.ls)];
            lease.max_invalidated = std::max(lease.max_invalidated, r.epoch);
            if (lease.epoch < r.epoch) {
              // Install the pushed content: the lease refreshes in place at
              // the new epoch. TTL is NOT extended — only a grant does that,
              // so a client that stops reading ages out of the directory.
              lease.epoch = r.epoch;
              lease.slot_key = r.ks;
              lease.slot_val = r.vs;
              lease.valid = r.epoch >= lease.max_invalidated;
            }
          }
        });
  }
}

LeaseManager::StripeLease* LeaseManager::lease_at(dsm::NodeId n, ShardId shard,
                                                  std::uint32_t stripe) {
  auto& node_cache = cache_[n];
  const auto it = node_cache.find(cache_key(shard, stripe));
  return it != node_cache.end() ? &it->second : nullptr;
}

const LeaseManager::StripeLease* LeaseManager::lease_at(
    dsm::NodeId n, ShardId shard, std::uint32_t stripe) const {
  const auto& node_cache = cache_[n];
  const auto it = node_cache.find(cache_key(shard, stripe));
  return it != node_cache.end() ? &it->second : nullptr;
}

sim::Process LeaseManager::client_read(dsm::NodeId n, ShardId shard,
                                       std::size_t slot, Key key,
                                       std::optional<dsm::Word>* out,
                                       bool leased) {
  auto& sched = sys_->scheduler();
  ShardDir& dir = *dirs_[shard];
  const std::uint32_t ls = stripe_of(slot);
  const bool use_lease = leased && cfg_.enabled;
  const std::size_t off =
      slot - static_cast<std::size_t>(ls) * cfg_.stripe_width;

  if (use_lease) {
    if (StripeLease* lease = lease_at(n, shard, ls);
        lease != nullptr && lease->valid && sched.now() < lease->expiry) {
      ++dir.counters.hits;
      auditor_.on_serve(n, shard, ls, lease->epoch, sched.now(),
                        lease->expiry);
      *out = lease->slot_key[off] == static_cast<dsm::Word>(key)
                 ? std::optional<dsm::Word>(lease->slot_val[off])
                 : std::nullopt;
      co_return;
    }
  }

  // Miss (or linearizable): round trip to the shard root. The wait parks
  // on a per-request rendezvous; the reply delivery wakes it.
  struct Rendezvous {
    explicit Rendezvous(sim::Scheduler& s) : sig(s) {}
    sim::Signal sig;
    bool done = false;
    dsm::Word key_word = 0;
    dsm::Word val_word = 0;
    // Grant path: the root's atomic (epoch, content) answer, kept so a
    // grant whose TTL elapsed in flight can still be served once.
    std::uint64_t epoch = 0;
    std::vector<dsm::Word> ks;
    std::vector<dsm::Word> vs;
  };
  // A traced op's fetch is one lease-fetch span; every request/reply leg
  // below nests under it, so the critical path shows each leg's wire and
  // retransmit time and the gap between legs (the root's serve) as fetch.
  auto* trc = sys_->tracer();
  telemetry::SpanContext fetch{};
  if (trc != nullptr) {
    if (const auto ctx = trc->node_ctx(n); ctx.valid()) {
      fetch = {ctx.trace,
               trc->start_span(ctx.trace, ctx.span,
                               telemetry::SpanKind::kLeaseFetch, n,
                               sched.now())};
    }
  }
  for (;;) {
    auto rv = std::make_shared<Rendezvous>(sched);
    if (use_lease) {
      sys_->send_direct(
          n, dir.root, cfg_.ctrl_bytes, "lease-req",
          [this, d = &dir, n, shard, ls, rv, fetch] {
            // Root side: the request queues FIFO on the node's RPC
            // serializer (arrival order fixes the slot); the handler runs
            // when its slot completes. It registers the holder at the
            // then-current epoch and answers from the authoritative table
            // — value and epoch are read at one instant, so a grant can
            // never pair a new epoch with a superseded value (or vice
            // versa).
            sys_->scheduler().after(serve_delay(d->root), [this, d, n, shard,
                                                           ls, rv, fetch] {
              ShardDir& dr = *d;
              const std::uint64_t epoch = dr.epoch[ls];
              const sim::Time expiry = sys_->scheduler().now() + cfg_.ttl_ns;
              bool refreshed = false;
              std::uint64_t prior_epoch = epoch;  // fresh grant: delta 0
              for (Holder& h : dr.holder[ls]) {
                if (h.node == n) {
                  prior_epoch = h.epoch;
                  h.epoch = epoch;
                  h.expiry = expiry;
                  refreshed = true;
                  break;
                }
              }
              if (!refreshed) dr.holder[ls].push_back(Holder{n, epoch, expiry});
              ++dr.counters.grants;
              if (auto* j = sys_->journal()) {
                j->lease_grant(sys_->scheduler().now(), n, shard, ls,
                               prior_epoch, epoch);
              }
              const std::size_t lo =
                  static_cast<std::size_t>(ls) * cfg_.stripe_width;
              const std::size_t hi =
                  std::min<std::size_t>(lo + cfg_.stripe_width, slots_);
              std::vector<dsm::Word> ks(dr.slot_key.begin() + lo,
                                        dr.slot_key.begin() + hi);
              std::vector<dsm::Word> vs(dr.slot_val.begin() + lo,
                                        dr.slot_val.begin() + hi);
              const auto bytes = static_cast<std::uint32_t>(
                  cfg_.ctrl_bytes + cfg_.data_bytes * (hi - lo));
              sys_->send_direct(
                  dr.root, n, bytes, "lease-grant",
                  [this, n, shard, ls, epoch, expiry, ks = std::move(ks),
                   vs = std::move(vs), rv]() mutable {
                    StripeLease& lease = cache_[n][cache_key(shard, ls)];
                    // The TTL extension is real either way (the directory
                    // holder was refreshed at service time), but content
                    // installs only if no pushed update got here first
                    // with a newer epoch.
                    lease.expiry = std::max(lease.expiry, expiry);
                    rv->epoch = epoch;
                    rv->ks = ks;
                    rv->vs = vs;
                    if (epoch >= lease.epoch) {
                      lease.epoch = epoch;
                      lease.slot_key = std::move(ks);
                      lease.slot_val = std::move(vs);
                      // A grant that an already-delivered invalidation
                      // supersedes installs dead: the reader below
                      // refetches instead of serving a version the client
                      // saw revoked.
                      lease.valid = epoch >= lease.max_invalidated;
                    }
                    rv->done = true;
                    rv->sig.notify_all();
                  },
                  fetch, telemetry::SpanKind::kWireDown);
            });
          },
          fetch);
    } else {
      sys_->send_direct(
          n, dir.root, cfg_.ctrl_bytes, "read-req",
          [this, d = &dir, slot, n, rv, fetch] {
            // Linearizable remote reads share the same RPC serializer as
            // grants — the server node is one instruction stream.
            sys_->scheduler().after(serve_delay(d->root), [this, d, slot, n,
                                                           rv, fetch] {
              ShardDir& dr = *d;
              ++dr.counters.remote_reads;
              const dsm::Word k = dr.slot_key[slot];
              const dsm::Word v = dr.slot_val[slot];
              sys_->send_direct(dr.root, n, cfg_.ctrl_bytes + cfg_.data_bytes,
                                "read-reply",
                                [rv, k, v] {
                                  rv->key_word = k;
                                  rv->val_word = v;
                                  rv->done = true;
                                  rv->sig.notify_all();
                                },
                                fetch, telemetry::SpanKind::kWireDown);
            });
          },
          fetch);
    }
    while (!rv->done) co_await rv->sig.wait();

    if (!use_lease) {
      *out = rv->key_word == static_cast<dsm::Word>(key)
                 ? std::optional<dsm::Word>(rv->val_word)
                 : std::nullopt;
      break;
    }
    StripeLease* lease = lease_at(n, shard, ls);
    if (lease != nullptr && lease->valid && sched.now() < lease->expiry) {
      auditor_.on_serve(n, shard, ls, lease->epoch, sched.now(),
                        lease->expiry);
      *out = lease->slot_key[off] == static_cast<dsm::Word>(key)
                 ? std::optional<dsm::Word>(lease->slot_val[off])
                 : std::nullopt;
      break;
    }
    // Grant TTL elapsed in flight but no newer invalidation was delivered:
    // serve the grant's own (epoch, content) answer once — it is the
    // root's atomic read at service time, exactly what a linearizable
    // round trip would have returned. Without this a TTL shorter than the
    // round trip retries forever.
    if (lease == nullptr || rv->epoch >= lease->max_invalidated) {
      *out = rv->ks[off] == static_cast<dsm::Word>(key)
                 ? std::optional<dsm::Word>(rv->vs[off])
                 : std::nullopt;
      break;
    }
    // The grant lost a race with a newer invalidation: fetch again — each
    // retry grants at the newest epoch.
  }
  if (fetch.valid()) trc->end_span(fetch.span, sched.now());
}

bool LeaseManager::warm(dsm::NodeId n, ShardId shard,
                        const std::vector<std::size_t>& slots) const {
  if (!cfg_.enabled) return false;
  const sim::Time now = sys_->scheduler().now();
  for (const std::size_t slot : slots) {
    const StripeLease* lease =
        lease_at(n, shard, stripe_of(static_cast<std::uint32_t>(slot)));
    if (lease == nullptr || !lease->valid || now >= lease->expiry) {
      return false;
    }
  }
  return true;
}

void LeaseManager::serve_warm(dsm::NodeId n, ShardId shard, std::size_t slot,
                              Key key, std::optional<dsm::Word>* out) {
  const std::uint32_t ls = stripe_of(static_cast<std::uint32_t>(slot));
  StripeLease* lease = lease_at(n, shard, ls);
  OPTSYNC_EXPECT(lease != nullptr && lease->valid);
  ShardDir& dir = *dirs_[shard];
  ++dir.counters.hits;
  auditor_.on_serve(n, shard, ls, lease->epoch, sys_->scheduler().now(),
                    lease->expiry);
  const std::size_t off =
      slot - static_cast<std::size_t>(ls) * cfg_.stripe_width;
  *out = lease->slot_key[off] == static_cast<dsm::Word>(key)
             ? std::optional<dsm::Word>(lease->slot_val[off])
             : std::nullopt;
}

std::size_t LeaseManager::directory_size(ShardId s) const {
  std::size_t n = 0;
  for (const auto& holders : dirs_[s]->holder) n += holders.size();
  return n;
}

std::size_t LeaseManager::holders(ShardId s, std::uint32_t stripe) const {
  return dirs_[s]->holder[stripe].size();
}

std::uint64_t LeaseManager::stripe_epoch(ShardId s,
                                         std::uint32_t stripe) const {
  return dirs_[s]->epoch[stripe];
}

}  // namespace optsync::shard
