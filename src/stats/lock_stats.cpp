#include "stats/lock_stats.hpp"

namespace optsync::stats {

namespace {
void write_histogram(JsonWriter& w, std::string_view key, const Histogram& h) {
  w.begin_object(key)
      .value("count", h.count())
      .value("min_ns", h.min())
      .value("mean_ns", h.mean())
      .value("p50_ns", h.p50())
      .value("p95_ns", h.p95())
      .value("p99_ns", h.p99())
      .value("max_ns", h.max())
      .end_object();
}
}  // namespace

void LockStats::merge(const LockStats& other) {
  acquire_ns.merge(other.acquire_ns);
  hold_ns.merge(other.hold_ns);
  acquisitions += other.acquisitions;
  speculative_attempts += other.speculative_attempts;
  speculative_commits += other.speculative_commits;
  rollbacks += other.rollbacks;
  journaled_vars += other.journaled_vars;
  history_allows += other.history_allows;
  history_vetoes += other.history_vetoes;
  root_speculative_drops += other.root_speculative_drops;
}

void LockStats::absorb(const sync::LockStatsView& v) {
  acquisitions += v.acquisitions;
  speculative_attempts += v.optimistic_attempts;
  speculative_commits += v.optimistic_successes;
  rollbacks += v.rollbacks;
  // Every speculative entry is, by definition, one the history gate allowed.
  history_allows += v.optimistic_attempts;
  history_vetoes += v.history_vetoes;
}

void LockStats::write_json(JsonWriter& w) const {
  w.begin_object()
      .value("name", name)
      .value("acquisitions", acquisitions)
      .value("speculative_attempts", speculative_attempts)
      .value("speculative_commits", speculative_commits)
      .value("rollbacks", rollbacks)
      .value("commit_rate", commit_rate())
      .value("journaled_vars", journaled_vars)
      .value("history_allows", history_allows)
      .value("history_vetoes", history_vetoes)
      .value("root_speculative_drops", root_speculative_drops);
  write_histogram(w, "acquire", acquire_ns);
  write_histogram(w, "hold", hold_ns);
  w.end_object();
}

}  // namespace optsync::stats
