// Core identifiers and wire-format constants of the Sesame DSM model.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "faults/fault_plan.hpp"
#include "net/link_model.hpp"
#include "net/reliable_channel.hpp"
#include "net/topology.hpp"
#include "simkern/time.hpp"

namespace optsync::trace {
class Recorder;
}

namespace optsync::telemetry {
class Tracer;
class Journal;
}

namespace optsync::dsm {

using net::NodeId;

/// Identifies an eagerly shared variable. Dense, assigned by DsmSystem.
using VarId = std::uint32_t;

/// Identifies a sharing group. Dense, assigned by DsmSystem.
using GroupId = std::uint32_t;

/// Value type of shared variables. The paper's variables are scalar words;
/// aggregates are modelled as several variables plus an explicit byte size
/// used for serialization costs.
using Word = std::int64_t;

/// Distinguished lock value meaning "free" (the paper's -99..99: a unique
/// negative number matching no processor id).
inline constexpr Word kLockFree = -999'999'999;

/// Sentinel for "no node".
inline constexpr NodeId kNoNode = std::numeric_limits<NodeId>::max();

/// How the group root and the sharing interfaces treat a variable.
enum class VarKind {
  kData,       ///< plain eagershared datum: sequenced, echoed to the writer
  kMutexData,  ///< datum guarded by a lock: root filters writes from
               ///< non-holders; HW blocking drops self-echoes (Fig. 6)
  kLock        ///< lock variable: writes are requests/releases consumed by
               ///< the root, which emits grants/frees as sequenced writes
};

/// Stable label for trace records ("data" / "mutex-data" / "lock"). The
/// GWC checker keys its rules off these strings.
constexpr std::string_view var_kind_name(VarKind k) {
  switch (k) {
    case VarKind::kData:
      return "data";
    case VarKind::kMutexData:
      return "mutex-data";
    case VarKind::kLock:
      return "lock";
  }
  return "?";
}

/// Encodes a lock request for processor `id` (the paper writes the negated
/// processor number). Node ids are 0-based; the wire value is -(id + 1) so
/// node 0 is representable.
constexpr Word lock_request_value(NodeId id) {
  return -(static_cast<Word>(id) + 1);
}

/// Encodes a grant for processor `id` (the positive processor number).
constexpr Word lock_grant_value(NodeId id) {
  return static_cast<Word>(id) + 1;
}

/// True when a lock word means "granted to `id`".
constexpr bool lock_granted_to(Word v, NodeId id) {
  return v == lock_grant_value(id);
}

/// True when a lock word means "granted to someone".
constexpr bool lock_held(Word v) { return v > 0; }

/// Extracts the holder from a grant word. Precondition: lock_held(v).
constexpr NodeId lock_holder(Word v) { return static_cast<NodeId>(v - 1); }

/// Tuning knobs for the simulated Sesame substrate.
struct DsmConfig {
  net::LinkModel link = net::LinkModel::paper();
  net::CpuModel cpu = net::CpuModel::paper();

  /// Size on the wire of one sequenced data-update packet
  /// (header + variable id + 8-byte value).
  std::uint32_t update_bytes = 16;

  /// Size of lock request / grant / release packets.
  std::uint32_t lock_bytes = 16;

  /// Root packet-handling latency per message (sequencing is done by the
  /// sharing interface hardware; keep small).
  sim::Duration root_process_ns = 25;

  /// Root drops writes to mutex data from nodes not holding the guard lock
  /// (the enabling mechanism for optimistic synchronization, §4).
  bool root_filters_speculative = true;

  /// Sharing interfaces drop root echoes of their own mutex-data writes
  /// (the hardware blocking mechanism, Fig. 6).
  bool hardware_blocking = true;

  /// Adds a uniformly random [0, jitter) delay to each root sequencing step
  /// (congestion/fault injection for robustness tests). The whole multicast
  /// batch shares one draw, so per-member FIFO — and therefore GWC order —
  /// is preserved by construction. 0 disables. Deterministic per seed.
  sim::Duration root_jitter_ns = 0;
  std::uint64_t jitter_seed = 0x0dd5eedull;

  /// --- root write coalescing (multicast frames) -----------------------
  /// Maximum sequenced writes per multicast frame. 1 (the default) flushes
  /// every write the moment it is sequenced — packaging, timing, and wire
  /// bytes all identical to the unbatched model. Larger values let the root
  /// accumulate a frame and amortize per-message headers (dsm/frame.hpp).
  std::uint32_t coalesce_max_writes = 1;

  /// How long a partially filled frame may wait for more writes before the
  /// root flushes it anyway. Bounds the latency cost of batching (a lock
  /// grant sitting in an open frame is invisible until the flush) and
  /// guarantees progress. Irrelevant at coalesce_max_writes == 1, where
  /// every flush is size-triggered.
  sim::Duration coalesce_max_ns = 10'000;

  /// Per-message header bytes amortized when writes share a frame: an
  /// n-write frame costs sum(bytes_for(var)) - (n-1)*frame_header_bytes on
  /// the wire (floored; see dsm/frame.hpp).
  std::uint32_t frame_header_bytes = 8;

  /// Message-level fault schedule (drops, duplicates, reorder-within-jitter
  /// delays, node pauses, link partitions). Empty (the default) leaves the
  /// network loss-free and the substrate byte-identical to the seed model.
  /// A non-empty plan force-enables the reliable transport below — GWC
  /// cannot survive loss without retransmission.
  faults::FaultPlan faults;

  /// Reliable tree transport (sequence numbers + ack/retransmit + dedup)
  /// between nodes and group roots. `reliable.enabled` opts in explicitly;
  /// it is implied whenever `faults` is non-empty.
  net::ReliableConfig reliable;

  /// Optional flight recorder. When set, the substrate reports network
  /// deliveries, root sequencing/filtering, and member application into it
  /// (trace/recorder.hpp); core/OptimisticMutex adds lock and speculation
  /// transitions. Not owned; must outlive the DsmSystem. nullptr = off.
  trace::Recorder* recorder = nullptr;

  /// Optional causal tracer (telemetry/tracer.hpp). When set, lock traffic
  /// carries SpanContext end to end: the substrate records wire-up/queue/
  /// coalesce/dispatch/wire-down spans for every traced lock request so
  /// the critical-path analyzer can attribute op latency. Untraced ops
  /// (invalid node context) cost one branch. Not owned. nullptr = off.
  telemetry::Tracer* tracer = nullptr;

  /// Optional decision journal (telemetry/journal.hpp). When set, the
  /// speculative layers append typed forensics records — txn aborts with
  /// reason + conflicting stripe/owner, lease epoch transitions, elastic
  /// ladder steps with their triggering inputs. Bounded and pooled; a full
  /// journal drops silently. Not owned. nullptr = off.
  telemetry::Journal* journal = nullptr;
};

/// Variable metadata kept by the system.
struct VarInfo {
  std::string name;
  GroupId group = 0;
  VarKind kind = VarKind::kData;
  /// For kMutexData: the lock variable that guards it (kNoVar otherwise).
  VarId guard = std::numeric_limits<VarId>::max();
  /// Wire size of update packets for this variable; 0 means the config
  /// default. Lets workloads model aggregates larger than one word.
  std::uint32_t wire_bytes = 0;
  /// For kLock: the lock's dense index among its group's locks (0, 1, ...
  /// in definition order) — the group root's lock-table slot.
  std::uint32_t lock_index = 0;
};

inline constexpr VarId kNoVar = std::numeric_limits<VarId>::max();

}  // namespace optsync::dsm
