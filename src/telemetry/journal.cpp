#include "telemetry/journal.hpp"

#include "stats/json.hpp"

namespace optsync::telemetry {

const char* abort_reason_name(AbortReason r) {
  switch (r) {
    case AbortReason::kReadSetClobber:
      return "read_set_clobber";
    case AbortReason::kCommitValidation:
      return "commit_validation";
    case AbortReason::kDirectoryEpoch:
      return "directory_epoch";
    case AbortReason::kFallbackEscalation:
      return "fallback_escalation";
  }
  return "unknown";
}

const char* Journal::kind_name(Kind k) {
  switch (k) {
    case Kind::kTxnAbort:
      return "txn_abort";
    case Kind::kLeaseGrant:
      return "lease_grant";
    case Kind::kLeaseInvalidation:
      return "lease_invalidation";
    case Kind::kLeaseExpiry:
      return "lease_expiry";
    case Kind::kElasticDecision:
      return "elastic_decision";
    case Kind::kTxnRepair:
      return "txn_repair";
  }
  return "unknown";
}

std::uint64_t Journal::count(Kind k) const {
  std::uint64_t n = 0;
  for (const auto& e : events_) {
    if (e.kind == k) ++n;
  }
  return n;
}

void Journal::write_json(std::ostream& out) const {
  stats::JsonWriter w(out, /*pretty=*/true);
  w.begin_object();
  w.value("schema", "optsync-journal/1");
  w.value("capacity", static_cast<std::uint64_t>(capacity_));
  w.value("dropped", dropped_);
  w.begin_array("events");
  for (const auto& e : events_) {
    w.begin_object();
    w.value("kind", kind_name(e.kind));
    w.value("t", e.t);
    switch (e.kind) {
      case Kind::kTxnAbort:
        w.value("reason", abort_reason_name(e.reason));
        w.value("node", e.node);
        w.value("shard", e.shard);
        w.value("stripe", e.stripe);
        w.value("owner", e.owner);
        w.value("attempt", e.attempt);
        break;
      case Kind::kLeaseGrant:
      case Kind::kLeaseInvalidation:
      case Kind::kLeaseExpiry:
        w.value("node", e.node);
        w.value("shard", e.shard);
        w.value("slot", e.stripe);
        w.value("epoch_old", e.epoch_old);
        w.value("epoch_new", e.epoch_new);
        break;
      case Kind::kElasticDecision:
        w.value("step", e.step != nullptr ? e.step : "unknown");
        w.value("shard", e.shard);
        w.value("target", e.target);
        w.value("slope_per_s", e.slope_per_s);
        w.value("peak_backlog", e.peak_backlog);
        w.value("backlog", e.backlog);
        w.value("top_key", e.top_key);
        w.value("top_share", e.top_share);
        w.value("streak", e.streak);
        w.value("cooldown", e.cooldown);
        break;
      case Kind::kTxnRepair:
        w.value("node", e.node);
        w.value("shard", e.shard);
        w.value("stripe", e.stripe);
        w.value("attempt", e.attempt);
        w.value("stale_stripes", e.stale_stripes);
        break;
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << "\n";
}

}  // namespace optsync::telemetry
