#include "stats/service_report.hpp"

#include <sstream>

namespace optsync::stats {

std::uint64_t ServiceReport::issued() const {
  std::uint64_t n = 0;
  for (const auto& s : shards) {
    for (const auto& o : s.ops) n += o.issued;
  }
  return n;
}

std::uint64_t ServiceReport::completed() const {
  std::uint64_t n = 0;
  for (const auto& s : shards) {
    for (const auto& o : s.ops) n += o.completed;
  }
  return n;
}

double ServiceReport::safe_rate(double count, sim::Time window_ns) {
  if (window_ns == 0) return 0.0;
  return count / sim::to_seconds(window_ns);
}

double ServiceReport::goodput_rps() const {
  return safe_rate(static_cast<double>(completed()), elapsed_ns);
}

double ServiceReport::shard_goodput_rps(std::size_t shard) const {
  if (shard >= shards.size()) return 0.0;
  double done = 0.0;
  for (const auto& o : shards[shard].ops) done += static_cast<double>(o.completed);
  return safe_rate(done, elapsed_ns);
}

std::uint32_t ServiceReport::drowning_shards() const {
  std::uint32_t n = 0;
  for (const auto& s : shards) n += s.drowning ? 1 : 0;
  return n;
}

Histogram ServiceReport::merged_latency(ServiceOp op) const {
  Histogram h;
  for (const auto& s : shards) h.merge(s.op(op).latency_ns);
  return h;
}

bool ServiceReport::serializable() const {
  for (const auto& s : shards) {
    if (!s.serializable()) return false;
  }
  return true;
}

std::string ServiceReport::format() const {
  std::ostringstream out;
  out << "service: " << shards.size() << " shards, " << completed() << "/"
      << issued() << " requests completed in " << sim::format_time(elapsed_ns)
      << "\n";
  char line[256];
  std::snprintf(line, sizeof line,
                "  offered %.0f req/s, goodput %.0f req/s, %llu messages\n",
                offered_rps, goodput_rps(),
                static_cast<unsigned long long>(messages));
  out << line;
  out << "  shard  reads  writes  txns   rmws   abort%  w.p50       "
         "w.p99       w.p999      serializable  health\n";
  for (const auto& s : shards) {
    const auto& w = s.op(ServiceOp::kWrite).latency_ns;
    char health[64];
    if (s.drowning) {
      std::snprintf(health, sizeof health, "DROWNING (+%.0f req/s backlog)",
                    s.backlog_slope_per_s);
    } else {
      std::snprintf(health, sizeof health, "ok");
    }
    std::snprintf(
        line, sizeof line,
        "  %-6u %-6llu %-7llu %-6llu %-6llu %-7.1f %-11s %-11s %-11s %-13s "
        "%s\n",
        s.shard,
        static_cast<unsigned long long>(s.op(ServiceOp::kRead).completed),
        static_cast<unsigned long long>(s.op(ServiceOp::kWrite).completed),
        static_cast<unsigned long long>(s.op(ServiceOp::kTxn).completed),
        static_cast<unsigned long long>(s.op(ServiceOp::kRmw).completed),
        100.0 * s.txn_abort_rate(),
        sim::format_time(static_cast<sim::Time>(w.p50())).c_str(),
        sim::format_time(static_cast<sim::Time>(w.p99())).c_str(),
        sim::format_time(static_cast<sim::Time>(w.p999())).c_str(),
        s.serializable() ? "yes" : "NO (BUG)", health);
    out << line;
  }
  bool lease_active = false;
  for (const auto& s : shards) {
    lease_active = lease_active || s.lease_hits + s.lease_grants +
                                           s.lease_invalidations +
                                           s.remote_reads + s.forwarded_ops >
                                       0;
  }
  if (lease_active) {
    out << "  shard  hit%    hits     grants   invals   remote   "
           "forwarded\n";
    for (const auto& s : shards) {
      std::snprintf(
          line, sizeof line,
          "  %-6u %-7.1f %-8llu %-8llu %-8llu %-8llu %llu\n", s.shard,
          100.0 * s.lease_hit_rate(),
          static_cast<unsigned long long>(s.lease_hits),
          static_cast<unsigned long long>(s.lease_grants),
          static_cast<unsigned long long>(s.lease_invalidations),
          static_cast<unsigned long long>(s.remote_reads),
          static_cast<unsigned long long>(s.forwarded_ops));
      out << line;
    }
  }
  std::uint64_t total_aborts = 0;
  std::uint64_t total_repairs = 0;
  for (const auto& s : shards) {
    total_aborts += s.txn_aborts;
    total_repairs += s.txn_repairs;
  }
  if (total_repairs > 0) {
    out << "  txn repairs (stale stripes re-run under the commit locks): "
        << total_repairs << " shard-commits\n";
  }
  if (total_aborts > 0) {
    out << "  shard  aborts   clobber  validate dir-ep   sum-ok  "
           "hottest-stripe\n";
    for (const auto& s : shards) {
      if (s.txn_aborts == 0) continue;
      std::size_t hot = 0;
      for (std::size_t i = 1; i < s.stripe_conflicts.size(); ++i) {
        if (s.stripe_conflicts[i] > s.stripe_conflicts[hot]) hot = i;
      }
      const std::uint64_t hot_count =
          s.stripe_conflicts.empty() ? 0 : s.stripe_conflicts[hot];
      std::snprintf(
          line, sizeof line,
          "  %-6u %-8llu %-8llu %-8llu %-8llu %-7s %zu (%llu)\n", s.shard,
          static_cast<unsigned long long>(s.txn_aborts),
          static_cast<unsigned long long>(s.aborts_read_clobber),
          static_cast<unsigned long long>(s.aborts_validation),
          static_cast<unsigned long long>(s.aborts_dir_epoch),
          s.abort_reasons_consistent() ? "yes" : "NO(BUG)", hot,
          static_cast<unsigned long long>(hot_count));
      out << line;
    }
  }
  if (drowning_shards() > 0) {
    out << "  " << drowning_shards()
        << " shard(s) DROWNING: backlog grew for as long as load was "
           "offered (past saturation, not merely slow)\n";
  }
  return out.str();
}

}  // namespace optsync::stats
