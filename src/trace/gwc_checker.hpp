// Group Write Consistency invariant checker over the trace stream.
//
// GWC's contract (paper §2.2): every member of a group observes all writes
// to the group's variables in one total order — the root's sequence — and
// speculative writes by non-holders never become visible. The checker
// replays the flight-recorder stream and proves both properties for a run:
//
//   1. Total order: each member applies sequenced writes in strictly
//      increasing sequence order, and what it applies (variable, value)
//      is exactly what the root stamped with that sequence number.
//   2. No invented writes: a member never applies a sequence number the
//      root did not issue.
//   3. Gaps are only echoes: a member may skip a sequence number only when
//      hardware blocking dropped its own mutex-data echo — i.e. the skipped
//      write is mutex-data originated by that very member.
//   4. No speculative visibility: every sequenced mutex-data write was
//      originated by the node holding ITS OWN guard lock at sequencing
//      time. Holders are tracked per lock variable from the sequenced
//      lock-word values themselves, so a group with several locks (one
//      per slot stripe) is checked stripe by stripe: holding a neighbour
//      stripe's lock does not license the write.
//
// Attach with install(): the checker registers a streaming sink on the
// recorder, so it sees every event even if the ring later evicts it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace/recorder.hpp"

namespace optsync::trace {

class GwcChecker {
 public:
  /// Registers this checker as a sink on `rec`. The checker must outlive
  /// the recorder's use.
  void install(Recorder& rec);

  /// Feeds one event (install() wires this up automatically).
  void on_event(const Event& e);

  [[nodiscard]] bool ok() const { return violations_.empty(); }
  [[nodiscard]] const std::vector<std::string>& violations() const {
    return violations_;
  }
  /// Violations joined for a test failure message; "GWC ok" when clean.
  [[nodiscard]] std::string report() const;

  [[nodiscard]] std::uint64_t writes_checked() const {
    return writes_checked_;
  }

 private:
  struct Sequenced {
    std::uint32_t var = 0;
    std::int64_t value = 0;
    std::uint32_t origin = ~0u;
    bool is_lock = false;
    bool is_mutex_data = false;
  };
  struct GroupState {
    std::map<std::uint64_t, Sequenced> by_seq;
    std::map<std::uint32_t, std::uint64_t> last_applied;  // node -> seq
    std::map<std::uint32_t, std::uint32_t> holders;       // lock -> node
  };

  void violation(std::string msg);

  std::map<std::uint32_t, GroupState> groups_;
  std::vector<std::string> violations_;
  std::uint64_t writes_checked_ = 0;
};

}  // namespace optsync::trace
