// dsm_inspect — offline forensics analyzer for the service's JSON dumps.
//
// Reads the artifacts a run leaves behind — the structured decision journal
// (--journal-out, schema "optsync-journal/1") and the metrics document
// (--metrics-out, schema "optsync-bench/5") — and answers the questions the
// live report cannot: which orec stripes the aborts piled onto and who
// owned them, which stripes commits repaired under their locks instead of
// aborting, what the elastic controller saw at each ladder step, how the
// lease epochs churned, and whether the critical-path extraction explains
// the latency tail.
//
//   dsm_inspect --journal run.journal.json --metrics run.metrics.json
//               --check-abort-sums --min-p99-named 0.95   (one command line)
//
// Exit status is nonzero on parse errors, schema violations (a txn_abort
// record without its reason/stripe, a txn_repair record without its
// attribution or stale-stripe count, an elastic decision without its
// triggering inputs), abort-partition mismatches (--check-abort-sums), or
// a p99 critical-path named fraction below --min-p99-named — so the CI
// forensics job is just this binary over the artifacts. Exit 2 is a usage
// error: a bad flag, a gate without the --metrics document it reads, or a
// --min-p99-named threshold outside [0, 1].
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "stats/json_parse.hpp"
#include "stats/table.hpp"
#include "util/flags.hpp"

namespace {

using namespace optsync;
using stats::JsonValue;

const std::set<std::string> kAbortReasons = {
    "read_set_clobber", "commit_validation", "directory_epoch",
    "fallback_escalation"};

/// Fields every txn_repair record must carry: who repaired, where (the
/// first stale stripe), on which attempt, and how many stripes it re-ran.
const std::vector<std::string> kRepairFields = {"node", "shard", "stripe",
                                                "attempt", "stale_stripes"};

/// Fields every elastic_decision record must carry — the "exact inputs
/// that triggered it" contract.
const std::vector<std::string> kElasticInputs = {
    "step",    "shard",     "target", "slope_per_s", "peak_backlog",
    "backlog", "top_key",   "top_share", "streak",   "cooldown"};

std::string format_ns(double ns) {
  char buf[64];
  if (ns >= 1e6) {
    std::snprintf(buf, sizeof buf, "%.2fms", ns / 1e6);
  } else if (ns >= 1e3) {
    std::snprintf(buf, sizeof buf, "%.2fus", ns / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.0fns", ns);
  }
  return buf;
}

std::string pct(double f) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f%%", 100.0 * f);
  return buf;
}

/// Journal analysis: abort forensics, hot stripes, elastic timeline, lease
/// churn. Returns false on any schema violation.
bool inspect_journal(const JsonValue& doc) {
  bool ok = true;
  const std::string schema = doc["schema"].as_string();
  if (schema != "optsync-journal/1") {
    std::cerr << "SCHEMA ERROR: journal schema is '" << schema
              << "', want optsync-journal/1\n";
    return false;
  }
  const auto& events = doc["events"].as_array();
  const std::uint64_t dropped = doc["dropped"].as_uint();
  std::cout << "=== decision journal ===\n"
            << events.size() << " events, " << dropped << " dropped (pool "
            << doc["capacity"].as_uint() << ")\n\n";
  if (dropped > 0) {
    std::cout << "warning: " << dropped << " events dropped at capacity —"
              << " counts below undercount the run\n\n";
  }

  // --- abort forensics ----------------------------------------------------
  std::map<std::string, std::uint64_t> by_reason;
  // (shard, stripe) -> {conflicts, owners seen}
  std::map<std::pair<std::uint64_t, std::uint64_t>,
           std::pair<std::uint64_t, std::map<std::uint64_t, std::uint64_t>>>
      heat;
  std::uint64_t aborts = 0;
  std::map<std::string, std::vector<const JsonValue*>> by_kind;
  for (const auto& e : events) {
    by_kind[e["kind"].as_string()].push_back(&e);
  }
  for (const JsonValue* ep : by_kind["txn_abort"]) {
    const auto& e = *ep;
    const std::string reason = e["reason"].as_string();
    if (kAbortReasons.count(reason) == 0) {
      std::cerr << "SCHEMA ERROR: txn_abort record at t="
                << e["t"].as_uint() << " has invalid reason '" << reason
                << "'\n";
      ok = false;
      continue;
    }
    if (!e.contains("stripe") || !e.contains("shard") ||
        !e.contains("owner") || !e.contains("node")) {
      std::cerr << "SCHEMA ERROR: txn_abort record at t=" << e["t"].as_uint()
                << " missing stripe/shard/owner/node attribution\n";
      ok = false;
      continue;
    }
    ++aborts;
    ++by_reason[reason];
    auto& cell = heat[{e["shard"].as_uint(), e["stripe"].as_uint()}];
    ++cell.first;
    ++cell.second[e["owner"].as_uint()];
  }
  std::cout << "--- abort forensics (" << aborts << " journaled aborts) ---\n";
  for (const auto& [reason, n] : by_reason) {
    std::cout << "  " << reason << ": " << n;
    if (aborts > 0) {
      std::cout << " (" << pct(static_cast<double>(n) /
                               static_cast<double>(aborts))
                << ")";
    }
    std::cout << "\n";
  }
  if (!heat.empty()) {
    std::vector<std::pair<std::pair<std::uint64_t, std::uint64_t>,
                          std::uint64_t>>
        hot;
    hot.reserve(heat.size());
    for (const auto& [key, cell] : heat) hot.emplace_back(key, cell.first);
    std::sort(hot.begin(), hot.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    stats::Table t({"shard", "stripe", "conflicts", "top owner"});
    const std::size_t show = std::min<std::size_t>(hot.size(), 10);
    for (std::size_t i = 0; i < show; ++i) {
      const auto& cell = heat[hot[i].first];
      std::uint64_t top_owner = 0;
      std::uint64_t top_n = 0;
      for (const auto& [owner, n] : cell.second) {
        if (n > top_n) {
          top_n = n;
          top_owner = owner;
        }
      }
      t.add_row({std::to_string(hot[i].first.first),
                 std::to_string(hot[i].first.second),
                 std::to_string(hot[i].second),
                 "node " + std::to_string(top_owner) + " (" +
                     std::to_string(top_n) + ")"});
    }
    std::cout << "hot conflict stripes (top " << show << " of " << heat.size()
              << "):\n";
    t.print(std::cout);
  }
  std::cout << "\n";

  // --- repair forensics ---------------------------------------------------
  const auto& repair_records = by_kind["txn_repair"];
  if (!repair_records.empty()) {
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t>
        repaired;
    std::uint64_t repairs = 0;
    std::uint64_t stale_total = 0;
    std::uint64_t first_attempt = 0;
    for (const JsonValue* rp : repair_records) {
      const auto& r = *rp;
      bool complete = true;
      for (const auto& field : kRepairFields) {
        if (!r.contains(field)) {
          std::cerr << "SCHEMA ERROR: txn_repair record at t="
                    << r["t"].as_uint() << " missing '" << field << "'\n";
          complete = false;
        }
      }
      if (complete && (r["stale_stripes"].as_uint() == 0 ||
                       r["attempt"].as_uint() == 0)) {
        std::cerr << "SCHEMA ERROR: txn_repair record at t="
                  << r["t"].as_uint()
                  << " has a zero stale_stripes or attempt\n";
        complete = false;
      }
      if (!complete) {
        ok = false;
        continue;
      }
      ++repairs;
      stale_total += r["stale_stripes"].as_uint();
      if (r["attempt"].as_uint() == 1) ++first_attempt;
      ++repaired[{r["shard"].as_uint(), r["stripe"].as_uint()}];
    }
    std::cout << "--- repair forensics (" << repairs
              << " journaled repairs) ---\n";
    if (repairs > 0) {
      std::cout << "  " << stale_total << " stale stripes re-run under the "
                << "commit locks (mean "
                << static_cast<double>(stale_total) /
                       static_cast<double>(repairs)
                << " per repair); "
                << pct(static_cast<double>(first_attempt) /
                       static_cast<double>(repairs))
                << " on the first attempt\n";
      std::vector<std::pair<std::pair<std::uint64_t, std::uint64_t>,
                            std::uint64_t>>
          hot(repaired.begin(), repaired.end());
      std::sort(hot.begin(), hot.end(), [](const auto& a, const auto& b) {
        return a.second > b.second;
      });
      stats::Table t({"shard", "stripe", "repairs"});
      const std::size_t show = std::min<std::size_t>(hot.size(), 10);
      for (std::size_t i = 0; i < show; ++i) {
        t.add_row({std::to_string(hot[i].first.first),
                   std::to_string(hot[i].first.second),
                   std::to_string(hot[i].second)});
      }
      std::cout << "most repaired stripes (top " << show << " of "
                << hot.size() << "):\n";
      t.print(std::cout);
    }
    std::cout << "\n";
  }

  // --- elastic decision timeline -----------------------------------------
  const auto& decisions = by_kind["elastic_decision"];
  std::cout << "--- elastic decisions (" << decisions.size() << ") ---\n";
  for (const JsonValue* dp : decisions) {
    const auto& d = *dp;
    bool complete = true;
    for (const auto& field : kElasticInputs) {
      if (!d.contains(field)) {
        std::cerr << "SCHEMA ERROR: elastic_decision at t=" << d["t"].as_uint()
                  << " missing input '" << field << "'\n";
        ok = false;
        complete = false;
      }
    }
    if (!complete) continue;
    std::cout << "  t=" << format_ns(d["t"].as_double()) << " "
              << d["step"].as_string() << " shard " << d["shard"].as_uint()
              << " -> " << d["target"].as_uint()
              << "  [backlog " << d["backlog"].as_double() << ", peak "
              << d["peak_backlog"].as_double() << ", slope "
              << d["slope_per_s"].as_double() << "/s, top key "
              << d["top_key"].as_uint() << " @ "
              << pct(d["top_share"].as_double()) << ", streak "
              << d["streak"].as_uint() << ", cooldown "
              << d["cooldown"].as_uint() << "]\n";
  }
  std::cout << "\n";

  // --- lease churn --------------------------------------------------------
  const auto grants = by_kind["lease_grant"].size();
  const auto invals = by_kind["lease_invalidation"].size();
  const auto expiries = by_kind["lease_expiry"].size();
  if (grants + invals + expiries > 0) {
    std::uint64_t max_delta = 0;
    std::uint64_t regressions = 0;
    for (const char* kind : {"lease_grant", "lease_invalidation"}) {
      for (const JsonValue* ep : by_kind[kind]) {
        const auto& e = *ep;
        const std::uint64_t eo = e["epoch_old"].as_uint();
        const std::uint64_t en = e["epoch_new"].as_uint();
        if (en < eo) {
          ++regressions;  // epochs are monotone; a regression is a bug
        } else {
          max_delta = std::max(max_delta, en - eo);
        }
      }
    }
    std::cout << "--- lease churn ---\n"
              << "  " << grants << " grants, " << invals
              << " invalidations, " << expiries
              << " expiries; max epoch delta " << max_delta << "\n";
    if (regressions > 0) {
      std::cerr << "SCHEMA ERROR: " << regressions
                << " lease records with epoch_new < epoch_old\n";
      ok = false;
    }
    std::cout << "\n";
  }
  return ok;
}

/// Metrics analysis: schema gate, abort-partition check over the shard
/// rows, p99 critical-path report from the attribution row.
bool inspect_metrics(const JsonValue& doc, bool check_sums,
                     double min_p99_named) {
  bool ok = true;
  const std::string schema = doc["schema"].as_string();
  if (schema != "optsync-bench/5") {
    std::cerr << "SCHEMA ERROR: metrics schema is '" << schema
              << "', want optsync-bench/5\n";
    return false;
  }
  std::cout << "=== metrics (" << doc["bench"].as_string() << ") ===\n";
  const auto& rows = doc["rows"].as_array();

  // --- abort partition over "shard=N" rows --------------------------------
  std::uint64_t total_aborts = 0;
  std::uint64_t total_attr = 0;
  std::uint64_t total_repairs = 0;
  std::size_t shard_rows = 0;
  bool sums_hold = true;
  for (const auto& row : rows) {
    const std::string label = row["label"].as_string();
    if (label.rfind("shard=", 0) != 0 || !row.contains("txn_aborts")) {
      continue;
    }
    ++shard_rows;
    const std::uint64_t a = row["txn_aborts"].as_uint();
    const std::uint64_t parts = row["aborts_read_clobber"].as_uint() +
                                row["aborts_validation"].as_uint() +
                                row["aborts_dir_epoch"].as_uint();
    total_aborts += a;
    total_attr += parts;
    if (row.contains("txn_repairs")) {
      total_repairs += row["txn_repairs"].as_uint();
    }
    if (parts != a) {
      std::cerr << "ABORT PARTITION MISMATCH: " << label << " has "
                << a << " aborts but reasons sum to " << parts << "\n";
      sums_hold = false;
    }
  }
  if (shard_rows > 0) {
    std::cout << "abort partition: " << total_attr << "/" << total_aborts
              << " aborts attributed across " << shard_rows << " shards — "
              << (sums_hold ? "exact" : "MISMATCH") << "; "
              << total_repairs << " shard-commits repaired\n";
    if (check_sums && !sums_hold) ok = false;
  } else if (check_sums) {
    std::cerr << "ABORT PARTITION CHECK: no shard rows with txn_aborts in"
              << " the metrics document\n";
    ok = false;
  }

  // --- critical-path report from the attribution row ----------------------
  const JsonValue* attribution = nullptr;
  for (const auto& row : rows) {
    if (row["label"].as_string() == "attribution") attribution = &row;
  }
  if (attribution != nullptr) {
    const auto& a = *attribution;
    std::cout << "critical path: "
              << a["traced_ops"].as_uint() << " traced ops";
    if (a.contains("path_named_fraction")) {
      std::cout << ", " << pct(a["path_named_fraction"].as_double())
                << " of latency on named path segments";
    }
    if (a.contains("p99_path_named_fraction")) {
      std::cout << ", " << pct(a["p99_path_named_fraction"].as_double())
                << " of the p99 tail";
    }
    std::cout << "\n";
    // Per-bucket path shares, largest first.
    std::vector<std::pair<std::string, double>> shares;
    for (const auto& [key, v] : a.as_object()) {
      const std::string prefix = "path_";
      const std::string suffix = "_share";
      if (key.rfind(prefix, 0) == 0 && key.size() > suffix.size() &&
          key.compare(key.size() - suffix.size(), suffix.size(), suffix) ==
              0) {
        shares.emplace_back(
            key.substr(prefix.size(),
                       key.size() - prefix.size() - suffix.size()),
            v.as_double());
      }
    }
    std::sort(shares.begin(), shares.end(),
              [](const auto& x, const auto& y) { return x.second > y.second; });
    for (const auto& [bucket, share] : shares) {
      if (share <= 0.0) continue;
      std::cout << "  " << bucket << ": " << pct(share) << "\n";
    }
    if (min_p99_named > 0.0) {
      const double got = a["p99_path_named_fraction"].as_double(-1.0);
      if (got < min_p99_named) {
        std::cerr << "P99 ATTRIBUTION GATE FAILED: " << pct(got)
                  << " of the p99 tail named (need >= "
                  << pct(min_p99_named) << ")\n";
        ok = false;
      }
    }
  } else if (min_p99_named > 0.0) {
    std::cerr << "P99 ATTRIBUTION GATE FAILED: no 'attribution' row in the"
              << " metrics document\n";
    ok = false;
  }
  std::cout << "\n";
  return ok;
}

void usage() {
  std::cerr
      << "usage: dsm_inspect [--journal PATH] [--metrics PATH]\n"
         "  --journal PATH       optsync-journal/1 dump (--journal-out)\n"
         "  --metrics PATH       optsync-bench/5 dump (--metrics-out)\n"
         "  --check-abort-sums   require the abort-reason partition to sum\n"
         "                       to txn_aborts on every shard row\n"
         "  --min-p99-named F    require the critical path to name >= F of\n"
         "                       the p99 tail's latency (F in [0, 1]; 0\n"
         "                       disables); both gates need --metrics\n"
         "prints abort forensics, hot-stripe tables, the elastic decision\n"
         "timeline, lease churn, and the critical-path report; exits\n"
         "nonzero on parse/schema/sum/threshold violations\n";
}

}  // namespace

int main(int argc, char** argv) try {
  util::Flags flags(argc, argv);
  if (flags.has("help")) {
    usage();
    return 0;
  }
  flags.allow_only(
      {"journal", "metrics", "check-abort-sums", "min-p99-named", "help"});
  const std::string journal_path = flags.get("journal", "");
  const std::string metrics_path = flags.get("metrics", "");
  if (journal_path.empty() && metrics_path.empty()) {
    usage();
    return 2;
  }
  // A gate that never runs must not print "clean": both gates read the
  // metrics document, so asking for one without it is a usage error.
  if (metrics_path.empty() &&
      (flags.has("check-abort-sums") || flags.has("min-p99-named"))) {
    std::cerr << "error: --check-abort-sums and --min-p99-named gate the"
              << " --metrics document; pass --metrics\n";
    return 2;
  }
  const double min_p99_named = flags.get_double("min-p99-named", 0.0);
  if (!(min_p99_named >= 0.0 && min_p99_named <= 1.0)) {
    std::cerr << "error: --min-p99-named must be a fraction in [0, 1]\n";
    return 2;
  }
  bool ok = true;
  if (!journal_path.empty()) {
    const auto parsed = stats::parse_json_file(journal_path);
    if (!parsed.ok) {
      std::cerr << "PARSE ERROR: " << journal_path << ": " << parsed.error
                << " (offset " << parsed.offset << ")\n";
      return 1;
    }
    if (!inspect_journal(parsed.value)) ok = false;
  }
  if (!metrics_path.empty()) {
    const auto parsed = stats::parse_json_file(metrics_path);
    if (!parsed.ok) {
      std::cerr << "PARSE ERROR: " << metrics_path << ": " << parsed.error
                << " (offset " << parsed.offset << ")\n";
      return 1;
    }
    if (!inspect_metrics(parsed.value, flags.get_bool("check-abort-sums", false),
                         min_p99_named)) {
      ok = false;
    }
  }
  std::cout << (ok ? "dsm_inspect: clean" : "dsm_inspect: VIOLATIONS") << "\n";
  return ok ? 0 : 1;
}
catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
