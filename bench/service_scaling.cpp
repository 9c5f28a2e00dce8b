// Service scaling: goodput and tail latency of the sharded DSM service as
// the shard count grows.
//
// Single-root sequencing is the GWC scaling bottleneck — every write of a
// group funnels through one root node. The sharded service breaks the
// namespace into independent groups, each with its own root and lock, so
// unrelated keys never contend. This bench quantifies the payoff: for each
// shard count in {1, 2, 4, 8, 16} it sweeps an open-loop offered load
// (fixed rate PER SHARD, so total offered load grows with the shard count)
// and reports goodput plus write p50/p99/p999. The run fails loudly if
// peak goodput does not increase monotonically with the shard count — the
// claim the subsystem exists to make — or if any per-shard serializability
// ledger or replica-convergence check breaks.
//
// Keys are drawn uniformly (hash sharding then spreads them evenly); use
// tools/dsm_service to explore skewed (Zipfian) traffic, burst arrivals,
// and fault injection on the same service stack.
#include <algorithm>
#include <array>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench_metrics.hpp"
#include "dsm/system.hpp"
#include "elastic/controller.hpp"
#include "faults/fault_plan.hpp"
#include "load/generator.hpp"
#include "net/topology.hpp"
#include "shard/client.hpp"
#include "shard/sharded_store.hpp"
#include "stats/table.hpp"
#include "telemetry/sampler.hpp"
#include "trace/gwc_checker.hpp"
#include "trace/recorder.hpp"
#include "util/flags.hpp"

namespace {

using namespace optsync;

struct RunResult {
  stats::ServiceReport report;
  bool converged = false;
};

RunResult run_service(bench::Harness& harness, std::uint32_t nodes,
                      std::uint32_t shards, double per_shard_rate,
                      std::uint64_t requests_per_shard, std::uint64_t seed,
                      telemetry::Tracer* tracer = nullptr,
                      bool zipfian = false) {
  sim::Scheduler sched;
  const auto topo = net::MeshTorus2D::near_square(nodes);
  dsm::DsmConfig cfg;
  harness.apply(cfg);
  // The grid shares the harness tracer (spans accumulate, unanalyzed); the
  // attribution stage passes a fresh one so its analysis covers one run.
  if (tracer != nullptr) cfg.tracer = tracer;
  dsm::DsmSystem sys(sched, topo, cfg);

  shard::ShardedStoreConfig scfg;
  scfg.shards = shards;
  shard::ShardedStore store(sys, scfg);

  load::GeneratorConfig gcfg;
  gcfg.seed = seed;
  gcfg.requests = requests_per_shard * shards;
  gcfg.rate_rps = per_shard_rate * shards;
  gcfg.keys.dist = zipfian ? load::KeyDist::kZipfian : load::KeyDist::kUniform;
  gcfg.keys.keys = 1024;
  gcfg.read_fraction = 0.25;
  gcfg.txn_fraction = 0.05;
  load::Generator gen(gcfg);

  RunResult res;
  shard::Client client(store);
  auto drive = gen.run(client, res.report);
  sched.run();
  store.fill_report(res.report);
  res.converged = store.replicas_converged();
  if (!gen.done()) throw std::runtime_error("generator did not finish");
  return res;
}

}  // namespace

int main(int argc, char** argv) try {
  util::Flags flags(argc, argv);
  bench::Harness harness("service_scaling", flags);
  harness.allow_only(flags, {"nodes", "requests-per-shard"});
  auto& metrics = harness.metrics();

  const auto nodes =
      static_cast<std::uint32_t>(flags.get_int("nodes", 16));
  const auto requests_per_shard = static_cast<std::uint64_t>(
      flags.get_int("requests-per-shard", 400));

  const std::uint32_t shard_counts[] = {1, 2, 4, 8, 16};
  // Offered load per shard (req/s). The top levels push a single shard's
  // root past saturation, which is exactly where extra shards pay; 400k is
  // past every shard's capacity (~680k req/s single-shard lock hand-off
  // ceiling shared across its offered mix), so the peak-goodput row reads
  // the service's true saturation throughput.
  const double rate_levels[] = {25'000, 50'000, 100'000, 200'000, 400'000};

  std::cout << "Service scaling: sharded DSM KV service, " << nodes
            << " nodes, open-loop load (uniform keys, 25% reads, 5% txns)\n"
            << "offered load is per shard; peak goodput must rise with the"
               " shard count\n\n";

  double prev_peak = 0.0;
  bool ok = true;
  for (const std::uint32_t shards : shard_counts) {
    stats::Table table({"per-shard req/s", "offered req/s", "goodput req/s",
                        "w.p50", "w.p99", "w.p999", "messages"});
    double peak = 0.0;
    for (std::size_t li = 0; li < std::size(rate_levels); ++li) {
      const double rate = rate_levels[li];
      // Per-run seed: deterministic in --seed, distinct per grid point.
      const std::uint64_t run_seed =
          harness.seed() ^ (0x9e3779b97f4a7c15ull * (shards * 16 + li + 1));
      const auto res = run_service(harness, nodes, shards, rate,
                                   requests_per_shard, run_seed);
      const auto& r = res.report;
      if (!r.serializable() || !res.converged) {
        std::cout << "SERVICE INVARIANT VIOLATION at shards=" << shards
                  << " rate=" << rate << " (serializable="
                  << r.serializable() << ", converged=" << res.converged
                  << ")\n";
        ok = false;
      }
      const auto w = r.merged_latency(stats::ServiceOp::kWrite);
      peak = std::max(peak, r.goodput_rps());
      table.add_row(
          {stats::Table::num(rate), stats::Table::num(r.offered_rps),
           stats::Table::num(r.goodput_rps()),
           sim::format_time(static_cast<sim::Time>(w.p50())),
           sim::format_time(static_cast<sim::Time>(w.p99())),
           sim::format_time(static_cast<sim::Time>(w.p999())),
           std::to_string(r.messages)});

      const std::string label =
          "shards=" + std::to_string(shards) + ",rate=" +
          std::to_string(static_cast<std::uint64_t>(rate));
      metrics.row(label)
          .set("shards", shards)
          .set("per_shard_rps", rate)
          .set("offered_rps", r.offered_rps)
          .set("goodput_rps", r.goodput_rps())
          .set("write_p50_ns", static_cast<double>(w.p50()))
          .set("write_p99_ns", static_cast<double>(w.p99()))
          .set("write_p999_ns", static_cast<double>(w.p999()))
          .set("messages", static_cast<double>(r.messages))
          .set("elapsed_ns", static_cast<double>(r.elapsed_ns));
      for (const auto& s : r.shards) {
        const auto& sw = s.op(stats::ServiceOp::kWrite).latency_ns;
        const auto& sr = s.op(stats::ServiceOp::kRead).latency_ns;
        metrics.row(label + ",shard=" + std::to_string(s.shard))
            .set("write_p50_ns", static_cast<double>(sw.p50()))
            .set("write_p99_ns", static_cast<double>(sw.p99()))
            .set("write_p999_ns", static_cast<double>(sw.p999()))
            .set("read_p99_ns", static_cast<double>(sr.p99()))
            .set("completed",
                 static_cast<double>(s.op(stats::ServiceOp::kWrite).completed +
                                     s.op(stats::ServiceOp::kRead).completed +
                                     s.op(stats::ServiceOp::kTxn).completed));
        auto ls = s.lock;
        ls.name = label + "/" + ls.name;
        metrics.lock(ls);
      }
    }
    std::cout << "--- " << shards << " shard" << (shards == 1 ? "" : "s")
              << " (peak goodput " << static_cast<std::uint64_t>(peak)
              << " req/s) ---\n";
    table.print(std::cout);
    std::cout << "\n";
    if (peak <= prev_peak) {
      std::cout << "SCALING REGRESSION: peak goodput at " << shards
                << " shards (" << peak << " req/s) did not exceed the "
                << "previous shard count's peak (" << prev_peak
                << " req/s)\n";
      ok = false;
    }
    prev_peak = peak;
  }

  // --- latency attribution (causal tracing) ------------------------------
  // One skewed (Zipfian) run with a fresh tracer: hot keys pile onto a few
  // shards, so the queue-wait and coalesce legs actually show up. The
  // critical-path sweep must attribute >= 95% of total measured latency to
  // named buckets (the rest is "other" — uninstrumented time).
  {
    telemetry::Tracer tracer;
    const auto res =
        run_service(harness, nodes, /*shards=*/4, /*per_shard_rate=*/50'000,
                    requests_per_shard, harness.seed() ^ 0xa77b0ull, &tracer,
                    /*zipfian=*/true);
    const telemetry::Analysis an = tracer.analyze();
    std::cout << "--- latency attribution (Zipfian, 4 shards, 50k req/s per"
                 " shard; "
              << an.ops.size() << " traced ops) ---\n";
    stats::Table atable({"bucket", "time", "share", "path share"});
    auto& arow = metrics.row("attribution");
    for (std::size_t b = 0; b < telemetry::kBucketCount; ++b) {
      const std::string name(
          telemetry::bucket_name(static_cast<telemetry::Bucket>(b)));
      const double share =
          an.total_latency == 0
              ? 0.0
              : static_cast<double>(an.totals[b]) /
                    static_cast<double>(an.total_latency);
      const double path_share =
          an.total_latency == 0
              ? 0.0
              : static_cast<double>(an.path_totals[b]) /
                    static_cast<double>(an.total_latency);
      atable.add_row({name, sim::format_time(static_cast<sim::Time>(an.totals[b])),
                      stats::Table::num(100.0 * share) + "%",
                      stats::Table::num(100.0 * path_share) + "%"});
      arow.set(name + "_ns", static_cast<double>(an.totals[b]));
      arow.set("path_" + name + "_ns",
               static_cast<double>(an.path_totals[b]));
      arow.set("path_" + name + "_share", path_share);
    }
    // The forensics gate reads the TAIL: over the slowest 1% of traced ops
    // (by request latency), how much of their latency does the critical
    // path land in a named segment? A good sweep number can hide a tail
    // whose slow ops are unexplained — the p99 cut cannot.
    std::vector<sim::Duration> latencies;
    latencies.reserve(an.ops.size());
    for (const auto& op : an.ops) latencies.push_back(op.total());
    std::sort(latencies.begin(), latencies.end());
    const sim::Duration p99_cut =
        latencies.empty()
            ? 0
            : latencies[latencies.size() - 1 -
                        std::min(latencies.size() - 1, latencies.size() / 100)];
    sim::Duration p99_total = 0;
    sim::Duration p99_other = 0;
    std::array<std::uint64_t, telemetry::kBucketCount> verdicts{};
    for (const auto& op : an.ops) {
      ++verdicts[static_cast<std::size_t>(op.dominant_path_bucket())];
      if (op.total() < p99_cut) continue;
      p99_total += op.total();
      p99_other += op.path_buckets[static_cast<std::size_t>(
          telemetry::Bucket::kOther)];
    }
    const double p99_path_named =
        p99_total == 0 ? 1.0
                       : static_cast<double>(p99_total - p99_other) /
                             static_cast<double>(p99_total);
    arow.set("total_latency_ns", static_cast<double>(an.total_latency))
        .set("named_fraction", an.named_fraction())
        .set("path_named_fraction", an.path_named_fraction())
        .set("p99_path_named_fraction", p99_path_named)
        .set("orphan_spans", static_cast<double>(an.orphan_spans))
        .set("traced_ops", static_cast<double>(an.ops.size()));
    atable.print(std::cout);
    std::cout << "named buckets cover "
              << stats::Table::num(100.0 * an.named_fraction())
              << "% of measured latency; critical path names "
              << stats::Table::num(100.0 * an.path_named_fraction())
              << "% overall, "
              << stats::Table::num(100.0 * p99_path_named)
              << "% of the p99 tail\n"
              << "dominant path verdicts:";
    for (std::size_t b = 0; b < telemetry::kBucketCount; ++b) {
      if (verdicts[b] == 0) continue;
      std::cout << " "
                << telemetry::bucket_name(static_cast<telemetry::Bucket>(b))
                << "=" << verdicts[b];
    }
    std::cout << "\n\n";
    if (an.orphan_spans != 0 || an.incomplete_ops != 0) {
      std::cout << "ATTRIBUTION VIOLATION: " << an.orphan_spans
                << " orphan spans, " << an.incomplete_ops
                << " incomplete ops (span trees must be complete)\n";
      ok = false;
    }
    if (an.named_fraction() < 0.95) {
      std::cout << "ATTRIBUTION VIOLATION: named buckets cover only "
                << stats::Table::num(100.0 * an.named_fraction())
                << "% of measured latency (need >= 95%)\n";
      ok = false;
    }
    if (p99_path_named < 0.95) {
      std::cout << "ATTRIBUTION VIOLATION: critical path names only "
                << stats::Table::num(100.0 * p99_path_named)
                << "% of the p99 tail's latency (need >= 95%)\n";
      ok = false;
    }
    if (!res.report.serializable() || !res.converged) {
      std::cout << "SERVICE INVARIANT VIOLATION in the attribution run\n";
      ok = false;
    }
  }

  // --- verified streams (GWC checker + applied-log equality) -------------
  // One saturated run with the full event checker streaming off the flight
  // recorder AND every member's applied-write log captured: beyond the
  // ledger/convergence checks above, this proves every replica of every
  // shard applied the same canonical (seq, var, value, origin) stream —
  // identical across members except for the root echoes of a member's own
  // mutex-data writes, which Fig. 6 hardware blocking drops by design. The
  // goodput numbers describe a correct service, not a fast broken one.
  {
    sim::Scheduler sched;
    const auto topo = net::MeshTorus2D::near_square(nodes);
    dsm::DsmConfig cfg;
    harness.apply(cfg);
    trace::Recorder rec(1 << 12);  // ring may evict; the checker streams
    trace::GwcChecker checker;
    checker.install(rec);
    cfg.recorder = &rec;
    dsm::DsmSystem sys(sched, topo, cfg);
    for (dsm::NodeId n = 0; n < static_cast<dsm::NodeId>(topo.size()); ++n) {
      sys.node(n).enable_applied_log(true);
    }

    shard::ShardedStoreConfig scfg;
    scfg.shards = 4;
    shard::ShardedStore store(sys, scfg);

    load::GeneratorConfig gcfg;
    gcfg.seed = harness.seed() ^ 0x5ea1edull;
    gcfg.requests = requests_per_shard * 4;
    gcfg.rate_rps = 200'000.0 * 4;
    gcfg.keys.keys = 1024;
    gcfg.read_fraction = 0.25;
    gcfg.txn_fraction = 0.05;
    load::Generator gen(gcfg);
    stats::ServiceReport report;
    shard::Client client(store);
    auto drive = gen.run(client, report);
    sched.run();
    store.fill_report(report);

    std::uint64_t compared_writes = 0;
    bool streams_identical = true;
    for (std::uint32_t s = 0; s < store.shards(); ++s) {
      const auto g = store.group_of(s);
      const auto& members = sys.group(g).members();
      // Hardware blocking (Fig. 6) makes each member drop the root echo of
      // its OWN mutex-data writes, so member logs are not literally equal:
      // member m's log must be the group's canonical sequenced stream minus
      // exactly those echoes. Merge the canonical stream from every member
      // (each write survives on all but one replica), insisting that any
      // seq seen twice carries the same (var, value, origin), then check
      // each member applied exactly its expected subsequence in order.
      std::map<std::uint64_t, dsm::DsmNode::AppliedUpdate> canon;
      for (const dsm::NodeId m : members) {
        for (const auto& u : sys.node(m).applied_log(g)) {
          auto [it, fresh] = canon.emplace(u.seq, u);
          if (!fresh &&
              (it->second.var != u.var || it->second.value != u.value ||
               it->second.origin != u.origin)) {
            streams_identical = false;
          }
        }
      }
      compared_writes += canon.size();
      for (const dsm::NodeId m : members) {
        const auto& log = sys.node(m).applied_log(g);
        std::size_t i = 0;
        for (const auto& [seq, u] : canon) {
          const bool echo_dropped =
              u.origin == m &&
              sys.var(u.var).kind == dsm::VarKind::kMutexData;
          if (echo_dropped) continue;
          if (i >= log.size() || log[i].seq != seq || log[i].var != u.var ||
              log[i].value != u.value || log[i].origin != u.origin) {
            streams_identical = false;
            break;
          }
          ++i;
        }
        if (i != log.size()) streams_identical = false;
      }
    }
    std::cout << "--- verified streams (4 shards, 200k req/s per shard) ---\n"
              << "GWC checker: " << checker.report() << " ("
              << checker.writes_checked() << " writes checked)\n"
              << "applied-log equality: "
              << (streams_identical ? "identical" : "DIVERGED") << " across "
              << topo.size() << " members, " << compared_writes
              << " canonical sequenced writes (own mutex echoes excluded "
                 "per Fig. 6 hardware blocking)\n\n";
    if (!checker.ok() || !streams_identical || !report.serializable() ||
        !store.replicas_converged()) {
      std::cout << "STREAM VERIFICATION VIOLATION\n";
      ok = false;
    }
    metrics.row("verified_streams")
        .set("writes_checked", static_cast<double>(checker.writes_checked()))
        .set("applied_writes", static_cast<double>(compared_writes))
        .set("streams_identical", streams_identical ? 1.0 : 0.0)
        .set("checker_ok", checker.ok() ? 1.0 : 0.0);
  }

  // --- leased read replicas (partial replication, read-heavy) -------------
  // Sixteen shards whose groups span only nodes [0, 4); the other twelve
  // nodes are pure clients. Under a 95/5 read/write Zipfian mix every
  // client read in the leases-off baseline is a round trip into one of the
  // four server nodes, whose outbound links are the capacity ceiling. The
  // lease tier turns repeat reads into zero-message local serves, so the
  // SAME seed with leases on must deliver at least 2x the goodput — that is
  // the number the tier exists to produce. A fault-seeded soak (drops and
  // duplicates across every message class, including the lease RPCs) then
  // re-runs the leased configuration with the GWC checker streaming and the
  // stale-read auditor required clean: the speedup may not cost the
  // staleness bound.
  {
    struct LeaseRun {
      stats::ServiceReport report;
      bool converged = false;
      bool auditor_ok = true;
      std::uint64_t audit_checks = 0;
      std::uint64_t hits = 0;
      std::uint64_t grants = 0;
      std::uint64_t invals = 0;
      std::uint64_t remote = 0;
    };
    auto run_once = [&](bool leases, std::uint64_t seed,
                        const faults::FaultPlan* plan,
                        trace::GwcChecker* checker) {
      sim::Scheduler sched;
      const auto topo = net::MeshTorus2D::near_square(nodes);
      dsm::DsmConfig cfg;
      harness.apply(cfg);
      trace::Recorder rec(1 << 12);
      if (plan != nullptr) cfg.faults = *plan;
      if (checker != nullptr) {
        checker->install(rec);
        cfg.recorder = &rec;
      }
      dsm::DsmSystem sys(sched, topo, cfg);
      shard::ShardedStoreConfig scfg;
      scfg.shards = 16;
      scfg.lease.server_nodes = 4;
      scfg.lease.enabled = leases;
      shard::ShardedStore store(sys, scfg);
      load::GeneratorConfig gcfg;
      gcfg.seed = seed;
      gcfg.requests = std::max<std::uint64_t>(requests_per_shard, 400) * 16;
      // Well past the ~6M RPC/s the four server nodes' serializers sustain
      // (4 x 1/650ns): the leases-off baseline must queue on the fan-in
      // ceiling for the comparison to measure the tier, not the load.
      gcfg.rate_rps = 1'200'000.0 * 16;
      gcfg.keys.dist = load::KeyDist::kZipfian;
      gcfg.keys.keys = 1024;
      gcfg.read_fraction = 0.95;
      gcfg.txn_fraction = 0.0;
      gcfg.read_level = shard::ConsistencyLevel::kLeased;
      load::Generator gen(gcfg);
      LeaseRun res;
      shard::Client client(store);
      auto drive = gen.run(client, res.report);
      sched.run();
      store.fill_report(res.report);
      res.converged = store.replicas_converged();
      const auto& aud = store.leases()->auditor();
      res.auditor_ok = aud.ok();
      res.audit_checks = aud.checks();
      for (const auto& s : res.report.shards) {
        res.hits += s.lease_hits;
        res.grants += s.lease_grants;
        res.invals += s.lease_invalidations;
        res.remote += s.remote_reads;
      }
      if (!gen.done()) throw std::runtime_error("generator did not finish");
      return res;
    };

    const std::uint64_t lease_seed = harness.seed() ^ 0x1ea5edull;
    const auto off = run_once(false, lease_seed, nullptr, nullptr);
    const auto on = run_once(true, lease_seed, nullptr, nullptr);
    const double speedup =
        off.report.goodput_rps() == 0.0
            ? 0.0
            : on.report.goodput_rps() / off.report.goodput_rps();
    const double hit_total = static_cast<double>(on.hits + on.grants +
                                                 on.remote);
    const double hit_rate =
        hit_total > 0.0 ? static_cast<double>(on.hits) / hit_total : 0.0;
    std::cout << "--- leased read replicas (16 shards on 4 server nodes,"
                 " 95/5 Zipfian) ---\n"
              << "leases off: "
              << static_cast<std::uint64_t>(off.report.goodput_rps())
              << " req/s goodput, " << off.report.messages << " messages\n"
              << "leases on:  "
              << static_cast<std::uint64_t>(on.report.goodput_rps())
              << " req/s goodput, " << on.report.messages << " messages ("
              << on.hits << " local serves, " << on.grants << " grants, "
              << on.invals << " invalidations)\n"
              << "read-heavy speedup " << stats::Table::num(speedup)
              << "x at " << stats::Table::num(100.0 * hit_rate)
              << "% lease hit rate\n";
    if (speedup < 2.0) {
      std::cout << "LEASE SPEEDUP REGRESSION: leased reads delivered only "
                << stats::Table::num(speedup)
                << "x the leases-off goodput (need >= 2x)\n";
      ok = false;
    }
    if (!off.report.serializable() || !off.converged ||
        !on.report.serializable() || !on.converged || !on.auditor_ok) {
      std::cout << "SERVICE INVARIANT VIOLATION in the lease stage\n";
      ok = false;
    }
    metrics.row("lease_read_heavy")
        .set("goodput_off_rps", off.report.goodput_rps())
        .set("goodput_on_rps", on.report.goodput_rps())
        .set("speedup", speedup)
        .set("messages_off", static_cast<double>(off.report.messages))
        .set("messages_on", static_cast<double>(on.report.messages))
        .set("lease_hits", static_cast<double>(on.hits))
        .set("lease_grants", static_cast<double>(on.grants))
        .set("lease_invalidations", static_cast<double>(on.invals))
        .set("remote_reads", static_cast<double>(on.remote))
        .set("hit_rate", hit_rate)
        .set("audit_checks", static_cast<double>(on.audit_checks))
        .set("auditor_ok", on.auditor_ok ? 1.0 : 0.0);

    // Fault-seeded soak over the leased configuration.
    std::uint64_t soak_checks = 0;
    std::uint64_t soak_writes = 0;
    bool soak_ok = true;
    for (std::uint64_t fs = 1; fs <= 3; ++fs) {
      faults::FaultPlan plan(fs);
      plan.drop(0.08, "lock").drop(0.08, "data").drop(0.08, "lease")
          .drop(0.08, "svc").duplicate(0.04);
      trace::GwcChecker checker;
      const auto res = run_once(true, lease_seed ^ (fs << 8), &plan,
                                &checker);
      soak_checks += res.audit_checks;
      soak_writes += checker.writes_checked();
      if (!checker.ok() || !res.auditor_ok || !res.report.serializable() ||
          !res.converged) {
        std::cout << "LEASE SOAK VIOLATION at fault seed " << fs
                  << " (gwc=" << checker.ok()
                  << ", auditor=" << res.auditor_ok
                  << ", serializable=" << res.report.serializable()
                  << ", converged=" << res.converged << ")\n";
        soak_ok = false;
      }
    }
    std::cout << "fault soak (3 seeds, drops+duplicates on all message"
                 " classes): "
              << (soak_ok ? "clean" : "VIOLATIONS") << " — " << soak_checks
              << " audited lease serves, " << soak_writes
              << " GWC-checked writes\n\n";
    if (!soak_ok) ok = false;
    metrics.row("lease_fault_soak")
        .set("seeds", 3.0)
        .set("audit_checks", static_cast<double>(soak_checks))
        .set("gwc_writes_checked", static_cast<double>(soak_writes))
        .set("clean", soak_ok ? 1.0 : 0.0);
  }

  // --- elastic fabric under a hotspot shift --------------------------------
  // Range-partitioned Zipfian traffic whose popularity head JUMPS to the
  // opposite half of the key space halfway through the schedule. Both runs
  // replay the IDENTICAL plan (same seed, same node span, shift included);
  // the static fabric funnels the post-shift head through one drowning
  // shard root until the drain completes, while the elastic control plane
  // re-pins, re-splits, and re-roots around the new hotspot. The gate is
  // the post-shift goodput ratio — elastic must deliver >= 1.5x static —
  // with the GWC event checker streaming on both runs and every
  // ledger/convergence check clean: reconfiguration may not cost a single
  // sequenced write.
  {
    struct ShiftRun {
      stats::ServiceReport report;
      bool converged = false;
      bool checker_ok = true;
      std::uint64_t writes_checked = 0;
      std::uint64_t actions = 0;
      std::uint64_t migrations = 0;
      std::uint64_t splits = 0;
      std::uint64_t merges = 0;
      std::uint64_t promotions = 0;
      std::uint64_t demotions = 0;
      std::uint64_t redirects = 0;
      std::uint64_t client_redirects = 0;
    };
    // Sized so the post-shift window (~1.4 ms of simulated time at the
    // rate below) leaves the controller room to promote the new head.
    const std::uint64_t shift_requests =
        std::max<std::uint64_t>(requests_per_shard, 600) * 16;
    const std::uint64_t shift_at = shift_requests / 2;

    load::GeneratorConfig gbase;
    gbase.seed = harness.seed() ^ 0xe1a57ull;
    gbase.requests = shift_requests;
    // Well past the hot shard's capacity: under Zipf 0.99 on the range
    // policy ~80% of the traffic lands in ONE quarter of the key space, so
    // the static fabric's post-shift drain is bound by one shard (~2.2M
    // req/s: ~32 keys share each of its stripe locks) while the elastic
    // one sheds the head onto hot groups.
    gbase.rate_rps = 4'000'000.0;
    gbase.keys.dist = load::KeyDist::kZipfian;
    gbase.keys.keys = 1024;
    gbase.keys.shift_at_request = shift_at;
    gbase.keys.shift_offset = 512;  // head jumps to the opposite half
    gbase.node_span = nodes - 1;    // the elastic control node stays client-free
    gbase.read_fraction = 0.25;
    gbase.txn_fraction = 0.05;

    // The shift instant is a plan property: both runs share it exactly.
    const auto shared_plan = load::Generator::plan(gbase, nodes);
    const auto shift_time = static_cast<sim::Time>(shared_plan[shift_at].at);

    auto run_once = [&](bool elastic_on) {
      sim::Scheduler sched;
      const auto topo = net::MeshTorus2D::near_square(nodes);
      dsm::DsmConfig cfg;
      harness.apply(cfg);
      trace::Recorder rec(1 << 12);
      trace::GwcChecker checker;
      checker.install(rec);
      cfg.recorder = &rec;
      dsm::DsmSystem sys(sched, topo, cfg);
      shard::ShardedStoreConfig scfg;
      scfg.shards = 4;
      scfg.policy = shard::ShardMap::Policy::kRange;
      scfg.key_space = 1024;
      scfg.elastic.enabled = elastic_on;
      scfg.elastic.hot_groups = 3;
      shard::ShardedStore store(sys, scfg);
      load::Generator gen(gbase);
      ShiftRun res;
      shard::Client client(store);
      auto drive = gen.run(client, res.report);
      telemetry::SamplerConfig smpcfg;
      smpcfg.interval_ns = 20'000;
      telemetry::Sampler sampler(smpcfg);
      store.register_telemetry(sampler, res.report);
      std::optional<elastic::ElasticController> ctrl;
      if (elastic_on) {
        // Faster loop than the defaults: the post-shift window is a few
        // milliseconds, so the controller ticks near the sampler rate and
        // promotes down to the Zipf head's ~8% ranks.
        elastic::ElasticControllerConfig ccfg;
        ccfg.interval_ns = 40'000;
        ccfg.cooldown_ticks = 1;
        ccfg.hot_key_share = 0.08;
        ccfg.max_pins_per_hot = 8;
        ctrl.emplace(store, res.report, sampler.series(), ccfg);
        ctrl->register_telemetry(sampler);
        ctrl->start();
      }
      sampler.start(sched);
      sched.run();
      sampler.stop();
      if (ctrl) ctrl->stop();
      store.fill_report(res.report);
      res.converged = store.replicas_converged();
      res.checker_ok = checker.ok();
      res.writes_checked = checker.writes_checked();
      if (ctrl) res.actions = ctrl->actions();
      for (std::uint32_t s = 0; s < store.shards(); ++s) {
        res.migrations += store.migrations(s);
        res.splits += store.splits(s);
        res.merges += store.merges(s);
        res.promotions += store.promotions(s);
        res.demotions += store.demotions(s);
        res.redirects += store.redirects(s);
      }
      res.client_redirects = client.stats().redirects;
      if (!gen.done()) throw std::runtime_error("generator did not finish");
      return res;
    };
    const auto fixed = run_once(false);
    const auto elastic = run_once(true);
    // Post-shift goodput: the second half of the schedule over the time it
    // took to serve it (shift instant to last completion). The arrivals are
    // identical, so this compares drain speed against the NEW hotspot.
    auto post_rps = [&](const ShiftRun& r) {
      const auto win =
          static_cast<double>(r.report.elapsed_ns) - static_cast<double>(shift_time);
      return win > 0.0
                 ? static_cast<double>(shift_requests - shift_at) / win * 1e9
                 : 0.0;
    };
    const double post_static = post_rps(fixed);
    const double post_elastic = post_rps(elastic);
    const double ratio = post_static > 0.0 ? post_elastic / post_static : 0.0;
    std::cout << "--- elastic fabric, hotspot shift (4 base shards + 3 hot"
                 " groups, range policy, Zipf 0.99, head jumps at request "
              << shift_at << ") ---\n"
              << "static:  post-shift goodput "
              << static_cast<std::uint64_t>(post_static) << " req/s (run "
              << sim::format_time(static_cast<sim::Time>(fixed.report.elapsed_ns))
              << ")\n"
              << "elastic: post-shift goodput "
              << static_cast<std::uint64_t>(post_elastic) << " req/s (run "
              << sim::format_time(
                     static_cast<sim::Time>(elastic.report.elapsed_ns))
              << "; " << elastic.actions << " control actions: "
              << elastic.promotions << " promotions, " << elastic.splits
              << " splits, " << elastic.migrations << " migrations, "
              << elastic.merges << " merges, " << elastic.demotions
              << " demotions; " << elastic.redirects
              << " stale-directory redirects)\n"
              << "post-shift speedup " << stats::Table::num(ratio) << "x ("
              << elastic.writes_checked << " GWC-checked writes across the"
                 " reconfigurations)\n\n";
    if (ratio < 1.5) {
      std::cout << "ELASTIC SHIFT REGRESSION: post-shift goodput ratio "
                << stats::Table::num(ratio) << "x (need >= 1.5x)\n";
      ok = false;
    }
    if (!fixed.checker_ok || !fixed.report.serializable() ||
        !fixed.converged || !elastic.checker_ok ||
        !elastic.report.serializable() || !elastic.converged) {
      std::cout << "SERVICE INVARIANT VIOLATION in the hotspot-shift stage "
                << "(static: gwc=" << fixed.checker_ok
                << " serializable=" << fixed.report.serializable()
                << " converged=" << fixed.converged
                << "; elastic: gwc=" << elastic.checker_ok
                << " serializable=" << elastic.report.serializable()
                << " converged=" << elastic.converged << ")\n";
      ok = false;
    }
    metrics.row("hotspot_shift")
        .set("post_goodput_static_rps", post_static)
        .set("post_goodput_elastic_rps", post_elastic)
        .set("post_goodput_ratio", ratio)
        .set("elapsed_static_ns", static_cast<double>(fixed.report.elapsed_ns))
        .set("elapsed_elastic_ns",
             static_cast<double>(elastic.report.elapsed_ns))
        .set("control_actions", static_cast<double>(elastic.actions))
        .set("migrations", static_cast<double>(elastic.migrations))
        .set("splits", static_cast<double>(elastic.splits))
        .set("merges", static_cast<double>(elastic.merges))
        .set("promotions", static_cast<double>(elastic.promotions))
        .set("demotions", static_cast<double>(elastic.demotions))
        .set("redirects", static_cast<double>(elastic.redirects))
        .set("client_redirects", static_cast<double>(elastic.client_redirects))
        .set("gwc_writes_checked",
             static_cast<double>(elastic.writes_checked))
        .set("checker_ok",
             fixed.checker_ok && elastic.checker_ok ? 1.0 : 0.0);
  }

  if (ok) {
    std::cout << "peak goodput increased monotonically with the shard "
                 "count; all runs serializable and convergent; streams "
                 "verified; leased reads delivering the read-heavy "
                 "speedup within the staleness bound; the elastic fabric "
                 "outrunning the static one after the hotspot shift with a "
                 "clean checker\n";
  }
  return harness.finish() && ok ? 0 : 1;
}
catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
