// DsmSystem: wires nodes, groups, roots, and the network together.
//
// This is the public entry point of the simulated Sesame substrate. Typical
// setup (see examples/quickstart.cpp):
//
//   sim::Scheduler sched;
//   auto topo = net::MeshTorus2D::near_square(16);
//   dsm::DsmSystem sys(sched, topo, dsm::DsmConfig{});
//   auto g    = sys.create_group({0,1,2,3}, /*root=*/1);
//   auto lock = sys.define_lock("L", g);
//   auto a    = sys.define_mutex_data("a", g, lock, /*init=*/0);
//   ... spawn sim::Process coroutines that read/write through sys.node(i) ...
//   sched.run();
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dsm/frame.hpp"
#include "dsm/group.hpp"
#include "dsm/node.hpp"
#include "dsm/root.hpp"
#include "dsm/types.hpp"
#include "faults/fault_injector.hpp"
#include "net/network.hpp"
#include "net/reliable_channel.hpp"
#include "simkern/random.hpp"
#include "simkern/scheduler.hpp"

namespace optsync::dsm {

class DsmSystem {
 public:
  /// Creates one DsmNode per topology node. The topology must outlive the
  /// system.
  DsmSystem(sim::Scheduler& sched, const net::Topology& topo,
            DsmConfig config = {});

  DsmSystem(const DsmSystem&) = delete;
  DsmSystem& operator=(const DsmSystem&) = delete;

  // --- construction ----------------------------------------------------
  /// Creates a sharing group over `members` rooted at `root`.
  GroupId create_group(std::vector<NodeId> members, NodeId root);

  /// Defines a plain eagershared variable, initialized on all members.
  /// `wire_bytes` overrides the update packet size (0 = config default),
  /// for modelling aggregates larger than one word.
  VarId define_data(std::string name, GroupId g, Word init = 0,
                    std::uint32_t wire_bytes = 0);

  /// Defines a lock variable (initially free).
  VarId define_lock(std::string name, GroupId g);

  /// Defines a datum guarded by `lock` (root-filtered, HW-block eligible).
  VarId define_mutex_data(std::string name, GroupId g, VarId lock,
                          Word init = 0);

  /// Re-initializes a variable on every group member without any traffic.
  void initialize(VarId v, Word value);

  // --- online root migration --------------------------------------------
  /// Re-roots `g` at `new_root` (must be a member): rebuilds the spanning
  /// tree and delivery classes. The sequencer object (GroupRoot) is
  /// per-group and survives the move; callers (elastic::RootMigrator) must
  /// quiesce it first and drain in-flight frames — see GroupRoot's
  /// begin_quiesce()/end_quiesce() and group_clear_at().
  void reroot_group(GroupId g, NodeId new_root);

  /// When the root's serializer for `g` last goes quiet: the dispatch+wire
  /// clear instant of the newest multicast frame (0 if none yet). A
  /// migration waits past this (plus the flight radius) before re-rooting,
  /// so buffering in the nodes' delivery gates stays the exception.
  [[nodiscard]] sim::Time group_clear_at(GroupId g) const;

  // --- access ------------------------------------------------------------
  [[nodiscard]] DsmNode& node(NodeId n);
  [[nodiscard]] const DsmNode& node(NodeId n) const;
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] const Group& group(GroupId g) const;
  [[nodiscard]] GroupRoot& root_of(GroupId g);
  [[nodiscard]] const VarInfo& var(VarId v) const;
  [[nodiscard]] std::size_t var_count() const { return vars_.size(); }
  /// Lock variables defined in group `g` (dense VarInfo::lock_index range).
  [[nodiscard]] std::uint32_t lock_count(GroupId g) const {
    return g < group_locks_.size() ? group_locks_[g] : 0;
  }
  [[nodiscard]] net::Network& network() { return net_; }
  [[nodiscard]] sim::Scheduler& scheduler() { return *sched_; }
  [[nodiscard]] const DsmConfig& config() const { return config_; }
  [[nodiscard]] const net::Topology& topology() const { return *topo_; }

  /// True when substrate traffic goes through the reliable channel (faults
  /// configured, or ReliableConfig::enabled set).
  [[nodiscard]] bool reliable_transport() const { return reliable_on_; }
  [[nodiscard]] const net::ReliableChannel& reliable() const { return rel_; }

  /// The active fault injector, or nullptr when the run is fault-free.
  [[nodiscard]] faults::FaultInjector* injector() {
    return injector_ ? &*injector_ : nullptr;
  }

  /// The attached flight recorder, or nullptr (from DsmConfig::recorder).
  [[nodiscard]] trace::Recorder* recorder() const { return config_.recorder; }

  /// The attached causal tracer, or nullptr (from DsmConfig::tracer).
  [[nodiscard]] telemetry::Tracer* tracer() const { return config_.tracer; }

  /// The attached decision journal, or nullptr (from DsmConfig::journal).
  [[nodiscard]] telemetry::Journal* journal() const {
    return config_.journal;
  }

  // --- substrate internals (used by DsmNode / GroupRoot) -----------------
  /// Ships a node's write to its group root (up the spanning tree).
  void share_out(NodeId origin, VarId v, Word value);

  /// Ships ONE lock-set message from `origin` to the root of the locks'
  /// group: every lock word of `locks` (all in one group, strictly
  /// ascending VarId) set to `value` — a request (lock_request_value of
  /// the origin) or a release (kLockFree). The root processes the set in
  /// order as one arrival (GroupRoot::on_lock_set). The message is one
  /// lock packet (lock_bytes), like a single lock word.
  void share_out_lock_set(NodeId origin, const std::vector<VarId>& locks,
                          Word value);

  /// Checks that `locks` is a valid lock set — non-empty, every entry a
  /// lock variable of one group, strictly ascending — and returns the
  /// group. Throws ContractViolation otherwise.
  GroupId check_lock_set(const std::vector<VarId>& locks) const;

  /// Root -> members: multicasts a frame of sequenced writes down the tree.
  /// The whole frame travels as one message per member (per-frame header
  /// amortization; see dsm/frame.hpp for the byte model). The caller's
  /// writes vector is swapped into a pooled payload and replaced by an
  /// empty vector with recycled capacity — the root flushes into the same
  /// buffers forever, no per-frame allocation.
  void multicast_frame(GroupId g, Frame& frame);

  /// Frame-payload pool counters (kernel_overhead bench: reuse share must
  /// approach 1 at steady state).
  [[nodiscard]] const util::RecyclePool<FramePayload>::Stats& pool_stats()
      const {
    return frame_pool_.stats();
  }

  /// Wire size of messages about variable `v`.
  [[nodiscard]] std::uint32_t bytes_for(VarId v) const;

  /// Point-to-point service message between two nodes over the shortest
  /// topology path, riding the same transport as substrate traffic (the
  /// reliable channel when faults are configured, the raw network
  /// otherwise — so RPCs built on it survive drop/dup/partition runs).
  /// This is the client <-> shard-root RPC primitive of the service layer:
  /// lease grants, invalidations, and forwarded writes all travel here.
  /// `tag` must outlive the delivery (callers pass string literals).
  ///
  /// A leg that carries a traced op's context (`ctx` valid) records its
  /// flight on arrival: the fault-free link delay as a `wire` span (kWireUp
  /// toward the server, kWireDown for the reply) and any loss-recovery
  /// delay on top as kRetransmit. Untraced legs (the default) record
  /// nothing.
  void send_direct(NodeId src, NodeId dst, std::uint32_t bytes,
                   std::string_view tag, net::DeliveryFn on_delivery,
                   telemetry::SpanContext ctx = {},
                   telemetry::SpanKind wire = telemetry::SpanKind::kWireUp);

 private:
  /// Routes one substrate message through the reliable channel or the raw
  /// network, per configuration.
  void transport_send(NodeId src, NodeId dst, unsigned hops,
                      std::uint32_t bytes, std::string_view tag,
                      net::DeliveryFn on_delivery);

  /// Records the flight of a traced message that just arrived: `wire`
  /// (kWireUp/kWireDown) for its fault-free base delay and kRetransmit for
  /// whatever loss recovery added on top. No-op for an untraced context.
  void record_flight_spans(telemetry::SpanContext ctx, telemetry::SpanKind wire,
                           NodeId node, sim::Time sent, sim::Duration base);

  /// Records the wire-down (and any retransmit) telemetry spans for the
  /// traced lock grants a delivered frame carries for member `m`.
  void record_down_spans(const Frame& frame, NodeId m, sim::Time dispatch,
                         sim::Duration base);

  sim::Scheduler* sched_;
  const net::Topology* topo_;
  DsmConfig config_;
  net::Network net_;
  net::ReliableChannel rel_;
  bool reliable_on_ = false;
  std::optional<faults::FaultInjector> injector_;
  std::vector<std::unique_ptr<DsmNode>> nodes_;
  std::vector<std::unique_ptr<Group>> groups_;
  std::vector<std::unique_ptr<GroupRoot>> roots_;
  std::vector<VarInfo> vars_;
  std::vector<std::uint32_t> group_locks_;  ///< locks defined per group
  std::vector<sim::Time> group_busy_until_;  ///< root serial-dispatch clock
  /// When the root's interface finishes serializing its latest frame. A
  /// later, smaller frame may not be injected so soon after a larger one
  /// that it would overtake it on the (FIFO) down links — frames of one
  /// group vary in size, and per-member delivery order must stay FIFO.
  std::vector<sim::Time> group_wire_clear_;
  util::RecyclePool<FramePayload> frame_pool_;
  sim::Rng jitter_rng_{0};
};

}  // namespace optsync::dsm
