#include "trace/gwc_checker.hpp"

#include <sstream>

#include "dsm/types.hpp"

namespace optsync::trace {

void GwcChecker::install(Recorder& rec) {
  rec.add_sink([this](const Event& e) { on_event(e); });
}

void GwcChecker::violation(std::string msg) {
  // Cap retention: a systemic failure would otherwise flood memory with
  // one message per applied write.
  if (violations_.size() < 64) violations_.push_back(std::move(msg));
}

void GwcChecker::on_event(const Event& e) {
  switch (e.kind) {
    case EventKind::kRootSequence: {
      GroupState& g = groups_[e.group];
      Sequenced s;
      s.var = e.var;
      s.value = e.value;
      s.origin = e.origin;
      s.is_lock = e.label == "lock";
      s.is_mutex_data = e.label == "mutex-data";
      // Rule 4: a mutex-data write reaching the sequencer must come from
      // the current holder of its guard lock; anything else is a
      // speculative write about to become visible to the whole group.
      if (s.is_mutex_data) {
        const auto h = g.holders.find(e.guard);
        if (h == g.holders.end()) {
          std::ostringstream o;
          o << "group " << e.group << " seq " << e.seq
            << ": mutex-data write to var " << e.var << " from node "
            << e.origin << " sequenced while the lock is free (guard var "
            << e.guard << ")";
          violation(o.str());
        } else if (e.origin != h->second) {
          std::ostringstream o;
          o << "group " << e.group << " seq " << e.seq
            << ": speculative mutex-data write to var " << e.var
            << " from node " << e.origin << " sequenced while node "
            << h->second << " holds the lock (guard var " << e.guard << ")";
          violation(o.str());
        }
      }
      if (s.is_lock) {
        // Track ownership from the sequenced lock words themselves:
        // positive = grant (holder encoded), kLockFree = release settled,
        // negative = request (no ownership change).
        if (dsm::lock_held(e.value)) {
          g.holders[e.var] = dsm::lock_holder(e.value);
        } else if (e.value == dsm::kLockFree) {
          g.holders.erase(e.var);
        }
      }
      g.by_seq[e.seq] = s;
      break;
    }

    case EventKind::kNodeApply: {
      GroupState& g = groups_[e.group];
      writes_checked_ += 1;
      const std::uint64_t last = g.last_applied[e.node];  // 0 = none yet
      // Rule 1 (order): strictly increasing per member.
      if (e.seq <= last) {
        std::ostringstream o;
        o << "group " << e.group << " node " << e.node
          << ": applied seq " << e.seq << " after seq " << last;
        violation(o.str());
        break;
      }
      // Rule 2 (no invention) + rule 1 (content): the applied write must
      // be exactly the root-stamped one.
      const auto it = g.by_seq.find(e.seq);
      if (it == g.by_seq.end()) {
        std::ostringstream o;
        o << "group " << e.group << " node " << e.node << ": applied seq "
          << e.seq << " that the root never issued";
        violation(o.str());
      } else if (it->second.var != e.var || it->second.value != e.value) {
        std::ostringstream o;
        o << "group " << e.group << " node " << e.node << " seq " << e.seq
          << ": applied var " << e.var << "=" << e.value
          << " but the root sequenced var " << it->second.var << "="
          << it->second.value;
        violation(o.str());
      }
      // Rule 3 (gaps): every skipped sequence number must be this member's
      // own mutex-data echo, dropped by hardware blocking.
      for (std::uint64_t s = last + 1; s < e.seq; ++s) {
        const auto sit = g.by_seq.find(s);
        if (sit == g.by_seq.end()) continue;  // root gap reported on apply
        if (!sit->second.is_mutex_data || sit->second.origin != e.node) {
          std::ostringstream o;
          o << "group " << e.group << " node " << e.node << ": skipped seq "
            << s << " (var " << sit->second.var << " from node "
            << sit->second.origin
            << "), which is not its own mutex-data echo";
          violation(o.str());
        }
      }
      g.last_applied[e.node] = e.seq;
      break;
    }

    default:
      break;  // other kinds carry no GWC obligation
  }
}

std::string GwcChecker::report() const {
  if (violations_.empty()) return "GWC ok";
  std::ostringstream o;
  o << violations_.size() << " GWC violation(s):";
  for (const auto& v : violations_) o << "\n  " << v;
  return o.str();
}

}  // namespace optsync::trace
