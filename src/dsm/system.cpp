#include "dsm/system.hpp"

#include "simkern/assert.hpp"
#include "telemetry/tracer.hpp"
#include "trace/recorder.hpp"

namespace optsync::dsm {

DsmSystem::DsmSystem(sim::Scheduler& sched, const net::Topology& topo,
                     DsmConfig config)
    : sched_(&sched),
      topo_(&topo),
      config_(config),
      net_(sched, topo, config.link),
      rel_(net_, config.reliable),
      jitter_rng_(config.jitter_seed) {
  // Faults imply the reliable layer: a lossy fiber without retransmission
  // cannot uphold GWC, and the delivery assertions in DsmNode would (and
  // should) fire.
  reliable_on_ = config_.reliable.enabled || !config_.faults.empty();
  if (!config_.faults.empty()) {
    injector_.emplace(net_, config_.faults);
  }
  if (config_.recorder != nullptr) {
    // Tap every network delivery (and reliable-channel outcome: expiry,
    // revival, dedup all flow through emit_trace) into the recorder. An
    // observer, not the primary hook, so tests' own hooks coexist.
    net_.add_trace_observer([rec = config_.recorder](
                                const net::MessageTrace& t) {
      trace::Event e;
      e.t = t.delivered_at;
      e.kind = trace::EventKind::kNetDeliver;
      e.node = t.dst;
      e.origin = t.src;
      e.value = static_cast<std::int64_t>(t.bytes);
      e.seq = static_cast<std::uint64_t>(t.kind);  // DeliveryKind ordinal
      e.label = t.tag;
      rec->record(e);
    });
  }
  nodes_.reserve(topo.size());
  for (NodeId i = 0; i < topo.size(); ++i) {
    nodes_.push_back(std::make_unique<DsmNode>(*this, i));
  }
}

GroupId DsmSystem::create_group(std::vector<NodeId> members, NodeId root) {
  for (const NodeId m : members) OPTSYNC_EXPECT(m < nodes_.size());
  const auto gid = static_cast<GroupId>(groups_.size());
  groups_.push_back(
      std::make_unique<Group>(gid, *topo_, std::move(members), root));
  roots_.push_back(std::make_unique<GroupRoot>(*this, gid));
  return gid;
}

VarId DsmSystem::define_data(std::string name, GroupId g, Word init,
                             std::uint32_t wire_bytes) {
  OPTSYNC_EXPECT(g < groups_.size());
  const auto v = static_cast<VarId>(vars_.size());
  vars_.push_back(
      VarInfo{std::move(name), g, VarKind::kData, kNoVar, wire_bytes});
  initialize(v, init);
  return v;
}

VarId DsmSystem::define_lock(std::string name, GroupId g) {
  OPTSYNC_EXPECT(g < groups_.size());
  const auto v = static_cast<VarId>(vars_.size());
  if (group_locks_.size() <= g) group_locks_.resize(g + 1, 0);
  vars_.push_back(VarInfo{std::move(name), g, VarKind::kLock, kNoVar, 0,
                          group_locks_[g]++});
  initialize(v, kLockFree);
  return v;
}

VarId DsmSystem::define_mutex_data(std::string name, GroupId g, VarId lock,
                                   Word init) {
  OPTSYNC_EXPECT(g < groups_.size());
  OPTSYNC_EXPECT(lock < vars_.size());
  OPTSYNC_EXPECT(vars_[lock].kind == VarKind::kLock);
  OPTSYNC_EXPECT(vars_[lock].group == g);
  const auto v = static_cast<VarId>(vars_.size());
  vars_.push_back(VarInfo{std::move(name), g, VarKind::kMutexData, lock, 0});
  initialize(v, init);
  return v;
}

void DsmSystem::initialize(VarId v, Word value) {
  OPTSYNC_EXPECT(v < vars_.size());
  for (const NodeId m : group(vars_[v].group).members()) {
    nodes_[m]->poke(v, value);
  }
}

void DsmSystem::reroot_group(GroupId g, NodeId new_root) {
  OPTSYNC_EXPECT(g < groups_.size());
  OPTSYNC_EXPECT(new_root < nodes_.size());
  groups_[g]->reroot(new_root);
}

sim::Time DsmSystem::group_clear_at(GroupId g) const {
  return g < group_wire_clear_.size() ? group_wire_clear_[g] : 0;
}

DsmNode& DsmSystem::node(NodeId n) {
  OPTSYNC_EXPECT(n < nodes_.size());
  return *nodes_[n];
}

const DsmNode& DsmSystem::node(NodeId n) const {
  OPTSYNC_EXPECT(n < nodes_.size());
  return *nodes_[n];
}

const Group& DsmSystem::group(GroupId g) const {
  OPTSYNC_EXPECT(g < groups_.size());
  return *groups_[g];
}

GroupRoot& DsmSystem::root_of(GroupId g) {
  OPTSYNC_EXPECT(g < roots_.size());
  return *roots_[g];
}

const VarInfo& DsmSystem::var(VarId v) const {
  OPTSYNC_EXPECT(v < vars_.size());
  return vars_[v];
}

std::uint32_t DsmSystem::bytes_for(VarId v) const {
  const VarInfo& info = vars_[v];
  if (info.kind == VarKind::kLock) return config_.lock_bytes;
  return info.wire_bytes != 0 ? info.wire_bytes : config_.update_bytes;
}

void DsmSystem::transport_send(NodeId src, NodeId dst, unsigned hops,
                               std::uint32_t bytes, std::string_view tag,
                               net::DeliveryFn on_delivery) {
  if (reliable_on_) {
    rel_.send(src, dst, hops, bytes, tag, std::move(on_delivery));
  } else {
    net_.send_hops(src, dst, hops, bytes, tag, std::move(on_delivery));
  }
}

void DsmSystem::send_direct(NodeId src, NodeId dst, std::uint32_t bytes,
                            std::string_view tag, net::DeliveryFn on_delivery,
                            telemetry::SpanContext ctx,
                            telemetry::SpanKind wire) {
  OPTSYNC_EXPECT(src < nodes_.size() && dst < nodes_.size());
  const unsigned hops = topo_->hop_count(src, dst);
  if (!ctx.valid()) {
    transport_send(src, dst, hops, bytes, tag, std::move(on_delivery));
    return;
  }
  const sim::Time sent = sched_->now();
  const sim::Duration base = net_.latency_hops(hops, bytes);
  transport_send(src, dst, hops, bytes, tag,
                 [this, ctx, wire, dst, sent, base,
                  cb = std::move(on_delivery)]() mutable {
                   record_flight_spans(ctx, wire, dst, sent, base);
                   cb();
                 });
}

void DsmSystem::share_out(NodeId origin, VarId v, Word value) {
  const VarInfo& info = vars_[v];
  const Group& grp = group(info.group);
  OPTSYNC_EXPECT(grp.contains(origin));
  const NodeId root = grp.root();
  const char* tag = info.kind == VarKind::kLock ? "lock-up" : "data-up";
  // Only lock traffic carries causal context: a traced op completes on its
  // local release write, so data-write flight time is never on the op's
  // critical path — but the request/release reaching the root is.
  telemetry::SpanContext ctx{};
  sim::Time sent = 0;
  sim::Duration base = 0;
  if (auto* trc = tracer(); trc != nullptr && info.kind == VarKind::kLock) {
    ctx = trc->node_ctx(origin);
    sent = sched_->now();
    base = net_.latency_hops(grp.up_hops(origin), bytes_for(v));
  }
  transport_send(
      origin, root, grp.up_hops(origin), bytes_for(v), tag,
      [this, g = info.group, origin, v, value, ctx, sent, base] {
        record_flight_spans(ctx, telemetry::SpanKind::kWireUp, origin, sent,
                            base);
        roots_[g]->on_arrival(origin, v, value, ctx);
      });
}

GroupId DsmSystem::check_lock_set(const std::vector<VarId>& locks) const {
  OPTSYNC_EXPECT(!locks.empty());
  const GroupId g = var(locks.front()).group;
  for (std::size_t i = 0; i < locks.size(); ++i) {
    const VarInfo& info = var(locks[i]);
    OPTSYNC_EXPECT(info.kind == VarKind::kLock && info.group == g);
    OPTSYNC_EXPECT(i == 0 || locks[i - 1] < locks[i]);
  }
  return g;
}

void DsmSystem::share_out_lock_set(NodeId origin,
                                   const std::vector<VarId>& locks,
                                   Word value) {
  const GroupId g = check_lock_set(locks);
  const Group& grp = group(g);
  OPTSYNC_EXPECT(grp.contains(origin));
  const NodeId root = grp.root();
  // A set packs into one lock packet: the value word carries the set as a
  // bitmap over the group's lock indices. Equal size also keeps the
  // node->root flow FIFO — a larger set message could otherwise be
  // overtaken by the next (smaller) request or data write of the node.
  const std::uint32_t bytes = config_.lock_bytes;
  // Same causal-context plumbing as a single lock word (share_out).
  telemetry::SpanContext ctx{};
  sim::Time sent = 0;
  sim::Duration base = 0;
  if (auto* trc = tracer()) {
    ctx = trc->node_ctx(origin);
    sent = sched_->now();
    base = net_.latency_hops(grp.up_hops(origin), bytes);
  }
  // `set = locks`, not a plain `locks` capture: copying a const reference
  // would make the member a const vector, whose "move" is a throwing copy,
  // and SmallFn would then heap-allocate every lock-set request.
  transport_send(
      origin, root, grp.up_hops(origin), bytes, "lock-up",
      [this, g, origin, set = locks, value, ctx, sent, base] {
        record_flight_spans(ctx, telemetry::SpanKind::kWireUp, origin, sent,
                            base);
        roots_[g]->on_lock_set(origin, set, value, ctx);
      });
}

void DsmSystem::multicast_frame(GroupId g, Frame& frame) {
  OPTSYNC_EXPECT(!frame.writes.empty());
  const Group& grp = group(g);
  const NodeId root = grp.root();
  // A frame carrying any lock word travels as lock traffic (a grant rides
  // with the previous holder's data); pure data frames stay "data-down".
  // At coalesce_max_writes == 1 this reproduces the per-write tags exactly.
  bool has_lock = false;
  std::uint64_t sum_bytes = 0;
  for (const SequencedWrite& w : frame.writes) {
    sum_bytes += bytes_for(w.var);
    if (vars_[w.var].kind == VarKind::kLock) has_lock = true;
  }
  const char* tag = has_lock ? "lock-down" : "data-down";
  const std::uint32_t bytes = frame_wire_bytes(sum_bytes, frame.writes.size(),
                                               config_.frame_header_bytes);
  sim::Duration proc = config_.root_process_ns;
  if (config_.root_jitter_ns > 0) {
    // Congestion injection: one draw per frame (every member's copy of this
    // frame is delayed identically).
    proc += jitter_rng_.below(config_.root_jitter_ns);
  }
  // The root dispatches frames as a serial server: dispatch times are
  // monotone per group, so per-member delivery stays FIFO (the GWC
  // guarantee) even under jittered processing times.
  if (group_busy_until_.size() <= g) group_busy_until_.resize(g + 1, 0);
  if (group_wire_clear_.size() <= g) group_wire_clear_.resize(g + 1, 0);
  sim::Time dispatch = std::max(sched_->now(), group_busy_until_[g]) + proc;
  // Frames vary in size, and a message's flight time grows with its size:
  // a small frame injected right behind a large one could arrive first and
  // violate per-member FIFO. Hold the injection until the previous frame
  // has cleared the root's serializer — with equal-size messages (any
  // coalesce_max_writes == 1 run over uniform update_bytes) the clamp never
  // binds and dispatch times are identical to the unbatched model.
  const sim::Duration serialize =
      static_cast<sim::Duration>(bytes) * config_.link.ns_per_byte;
  if (dispatch + serialize < group_wire_clear_[g]) {
    dispatch = group_wire_clear_[g] - serialize;
  }
  group_busy_until_[g] = dispatch;
  group_wire_clear_[g] = dispatch + serialize;
  const bool traced = tracer() != nullptr;
  if (traced) {
    // Sequencing/serial-dispatch wait at the root: flush -> injection.
    const sim::Time now = sched_->now();
    for (const SequencedWrite& w : frame.writes) {
      if (w.ctx.valid() && dispatch > now) {
        tracer()->record_span(w.ctx.trace, w.ctx.span,
                              telemetry::SpanKind::kRootDispatch, root, now,
                              dispatch);
      }
    }
  }
  // Every member's copy shares one immutable pooled payload; the caller's
  // vector is swapped out and replaced with a recycled (empty, warm) one.
  FramePayload* raw = frame_pool_.acquire();
  raw->pool = &frame_pool_;
  raw->frame.writes.swap(frame.writes);
  // Deliberately non-const: a const capture would make the delivery
  // closures' moves copy the ref (refcount churn on every enqueue).
  FrameRef payload(raw);
  if (reliable_on_ || net_.fault_hook_installed()) {
    // Lossy/reliable transport needs a real per-member message (its own
    // retransmit timer, its own fault draw), so the fan-out stays one
    // transport_send per member, launched from one injection event at the
    // dispatch instant.
    sched_->at(dispatch, [this, g, root, bytes, tag, payload, dispatch,
                          traced] {
      const Group& grp = group(g);
      for (const NodeId m : grp.members()) {
        sim::Duration base = 0;
        if (traced) base = net_.latency_hops(grp.down_hops(m), bytes);
        transport_send(root, m, grp.down_hops(m), bytes, tag,
                       [this, m, g, payload, dispatch, base] {
                         if (tracer() != nullptr) {
                           record_down_spans(*payload, m, dispatch, base);
                         }
                         nodes_[m]->deliver_frame(g, *payload);
                       });
      }
    });
    return;
  }
  // Fault-free fast path: every member at the same tree depth receives its
  // copy at the same instant (delay is a pure function of hops and bytes),
  // so the fan-out schedules ONE delivery event per hop-class, not one per
  // member. A 1024-member group in flight holds ~33 pending events instead
  // of 1024 — the scheduler heap stays shallow no matter the fan-out — and
  // the member loop inside the event touches node state in ascending-id
  // order, which the per-member interleaving never did. Per-member message
  // accounting and trace records are preserved; deliveries within a class
  // run in member order, exactly the order the per-member path produced for
  // same-time copies.
  for (const Group::HopClass& hc : grp.down_classes()) {
    const sim::Duration fly = net_.latency_hops(hc.hops, bytes);
    net_.account_sends(hc.members.size(), hc.hops, bytes);
    sched_->at(
        dispatch + fly,
        [this, g, root, bytes, payload, dispatch, fly, traced,
         tag = std::string_view(tag), members = &hc.members] {
          const bool observed = net_.observing();
          for (const NodeId m : *members) {
            if (observed) {
              net_.emit_trace(net::MessageTrace{dispatch, sched_->now(), root,
                                                m, bytes, tag,
                                                net::DeliveryKind::kNormal});
            }
            if (traced) record_down_spans(*payload, m, dispatch, fly);
            nodes_[m]->deliver_frame(g, *payload);
          }
        });
  }
}

void DsmSystem::record_flight_spans(telemetry::SpanContext ctx,
                                    telemetry::SpanKind wire, NodeId node,
                                    sim::Time sent, sim::Duration base) {
  auto* trc = tracer();
  if (trc == nullptr || !ctx.valid()) return;
  // Split flight time into the fault-free base (`wire`) and whatever
  // retransmission/backoff added on top (kRetransmit).
  const sim::Time now = sched_->now();
  const sim::Time base_end = std::min(sent + base, now);
  trc->record_span(ctx.trace, ctx.span, wire, node, sent, base_end);
  if (now > base_end) {
    trc->record_span(ctx.trace, ctx.span, telemetry::SpanKind::kRetransmit,
                     node, base_end, now);
  }
}

void DsmSystem::record_down_spans(const Frame& frame, NodeId m,
                                  sim::Time dispatch, sim::Duration base) {
  // The down leg matters only to the trace whose grant this frame carries
  // for member m: the waiter is unblocked when the grant lands.
  for (const SequencedWrite& w : frame.writes) {
    if (!w.ctx.valid()) continue;
    if (vars_[w.var].kind != VarKind::kLock) continue;
    if (!lock_granted_to(w.value, m)) continue;
    record_flight_spans(w.ctx, telemetry::SpanKind::kWireDown, m, dispatch,
                        base);
  }
}

}  // namespace optsync::dsm
