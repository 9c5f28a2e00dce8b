// dsm_service — command-line front end for the sharded DSM service.
//
// Runs one service configuration end to end: a shard::ShardedStore over a
// mesh of simulated nodes, driven by the open-loop load::Generator, with
// the full SLO report (per-shard read/write/txn counts and latency
// percentiles, lock flight records, serializability ledger) printed at the
// end. All the standard bench plumbing composes: --seed, --metrics-out,
// --trace-out, --coalesce-max-writes/--coalesce-max-ns, --ack-delay-ns,
// and the fault flags (--fault-drop, --fault-seed, --partition).
//
// In fault-soak mode (any fault flag set) the run additionally streams
// every flight-recorder event through trace::GwcChecker, which proves the
// applied write stream of EVERY shard's group is a gapless total order
// with no speculative visibility — independently of the service's own
// serializability and convergence assertions. Exit status is nonzero on
// any violation, so the CI soak loop is just a shell loop over seeds.
//
//   dsm_service --shards 8 --rate 50000 --requests 2000
//               --fault-drop 0.10 --fault-seed 7 --metrics-out out.json
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
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
#include "stats/metrics.hpp"
#include "telemetry/overload.hpp"
#include "trace/gwc_checker.hpp"
#include "util/flags.hpp"

namespace {

using namespace optsync;

/// Builds a FaultPlan from --fault-drop / --fault-seed / --partition
/// (same grammar as optsync_sim).
bool parse_fault_flags(const util::Flags& flags, faults::FaultPlan* plan) {
  const auto seed = static_cast<std::uint64_t>(flags.get_int("fault-seed", 1));
  plan->reseed(seed);
  const double drop = flags.get_double("fault-drop", 0.0);
  if (drop < 0.0 || drop > 1.0) {
    std::cerr << "--fault-drop must be in [0, 1]\n";
    return false;
  }
  if (drop > 0.0) plan->drop(drop, "lock").drop(drop, "data");
  const std::string spec = flags.get("partition", "");
  std::istringstream windows(spec);
  std::string window;
  while (std::getline(windows, window, ',')) {
    std::istringstream fields(window);
    std::string field;
    std::vector<std::uint64_t> v;
    while (std::getline(fields, field, ':')) {
      try {
        v.push_back(std::stoull(field));
      } catch (const std::exception&) {
        v.clear();
        break;
      }
    }
    if (v.size() != 4 || v[0] == v[1] || v[2] >= v[3]) {
      std::cerr << "bad --partition window '" << window
                << "' (want A:B:START:END with A != B, START < END)\n";
      return false;
    }
    plan->partition_link(static_cast<net::NodeId>(v[0]),
                         static_cast<net::NodeId>(v[1]), v[2], v[3]);
  }
  return true;
}

void usage() {
  std::cerr
      << "usage: dsm_service [options]\n"
         "  --nodes N            simulated CPUs (default 16)\n"
         "  --shards N           independent sharing groups (default 4)\n"
         "  --requests N         total requests (default 2000)\n"
         "  --rate R             offered load, req/s (default 100000)\n"
         "  --arrival KIND       poisson | uniform | burst (default poisson)\n"
         "  --dist KIND          zipfian | uniform keys (default zipfian)\n"
         "  --zipf-s S           Zipf exponent (default 0.99)\n"
         "  --keys N             key domain size (default 256)\n"
         "  --read-fraction F    P(read) (default 0.5)\n"
         "  --txn-fraction F     P(multi-key txn) (default 0.05)\n"
         "  --rmw-fraction F     P(multi-key read-modify-write) (default 0)\n"
         "  --txn-keys N         keys per txn/rmw (default 3)\n"
         "  --txn-mode M         occ | legacy multi-key commit (default"
         " occ)\n"
         "  --server-nodes N     partial replication: groups span nodes"
         " [0,N),\n                       the rest are clients (default 0 ="
         " full replication)\n"
         "  --lease              enable the leased read-replica tier"
         " (needs --server-nodes)\n"
         "  --lease-ttl-ns T     lease lifetime (default 2000000)\n"
         "  --consistency C      linearizable | leased | snapshot read"
         " level (default\n                       leased when --lease is"
         " set, else linearizable)\n"
         "  --elastic            enable the elastic control plane (hot-key"
         " promotion,\n                       stripe split/merge, online root"
         " migration)\n"
         "  --hot-groups N       dedicated hot groups appended after the base"
         " shards\n                       (default 2; needs --elastic)\n"
         "  --migrate-shard S:N  one-shot manual root migration of shard S to"
         " node N,\n                       fired shortly after start (needs"
         " --elastic)\n"
         "  --fault-drop P --fault-seed N --partition A:B:S:E[,...]\n"
         "  plus the standard bench flags (--seed, --metrics-out,"
         " --trace-out,\n  --trace-capacity, --coalesce-max-writes,"
         " --coalesce-max-ns, --ack-delay-ns,\n  --prom-out,"
         " --timeseries-out, --sample-interval-ns, --journal-out,\n"
         "  --journal-capacity)\n";
}

}  // namespace

int main(int argc, char** argv) try {
  util::Flags flags(argc, argv);
  if (flags.has("help")) {
    usage();
    return 0;
  }
  bench::Harness harness("dsm_service", flags);
  harness.allow_only(
      flags, {"nodes", "shards", "requests", "rate", "arrival", "dist",
              "zipf-s", "keys", "read-fraction", "txn-fraction",
              "rmw-fraction", "txn-keys", "txn-mode",
              "server-nodes", "lease", "lease-ttl-ns", "consistency",
              "elastic", "hot-groups", "migrate-shard",
              "fault-drop", "fault-seed", "partition", "help"});

  const auto nodes = static_cast<std::uint32_t>(flags.get_int("nodes", 16));
  const auto shards = static_cast<std::uint32_t>(flags.get_int("shards", 4));

  faults::FaultPlan plan;
  if (!parse_fault_flags(flags, &plan)) return 2;
  const bool soak = !plan.empty();

  dsm::DsmConfig cfg;
  cfg.faults = plan;
  harness.apply(cfg);
  // Fault-soak mode always audits GWC, trace file or not: the checker is a
  // streaming recorder sink, so wire the recorder in regardless.
  trace::GwcChecker checker;
  if (soak) {
    cfg.recorder = &harness.recorder();
    checker.install(harness.recorder());
  }

  sim::Scheduler sched;
  const auto topo = net::MeshTorus2D::near_square(nodes);
  dsm::DsmSystem sys(sched, topo, cfg);

  shard::ShardedStoreConfig scfg;
  scfg.shards = shards;
  const std::string txn_mode = flags.get("txn-mode", "occ");
  if (txn_mode == "occ") {
    scfg.txn.mode = shard::TxnMode::kOcc;
  } else if (txn_mode == "legacy") {
    scfg.txn.mode = shard::TxnMode::kLegacy;
  } else {
    std::cerr << "unknown --txn-mode '" << txn_mode << "'\n";
    return 2;
  }
  scfg.lease.server_nodes =
      static_cast<std::uint32_t>(flags.get_int("server-nodes", 0));
  scfg.lease.enabled = flags.get_bool("lease", false);
  const std::int64_t ttl_ns = flags.get_int("lease-ttl-ns", 2'000'000);
  if (ttl_ns <= 0) {  // Duration is unsigned: reject before the cast wraps
    std::cerr << "--lease-ttl-ns must be > 0\n";
    return 2;
  }
  scfg.lease.ttl_ns = static_cast<sim::Duration>(ttl_ns);
  if (scfg.lease.enabled && scfg.lease.server_nodes == 0) {
    std::cerr << "--lease needs --server-nodes N (partial replication)\n";
    return 2;
  }
  const bool elastic = flags.get_bool("elastic", false);
  scfg.elastic.enabled = elastic;
  scfg.elastic.hot_groups =
      static_cast<std::uint32_t>(flags.get_int("hot-groups", 2));
  if (!elastic && flags.has("hot-groups")) {
    std::cerr << "--hot-groups needs --elastic\n";
    return 2;
  }
  // --migrate-shard S:N — manual one-shot root migration, parsed up front
  // so a bad spec fails before the simulation spins up.
  const std::string mig_spec = flags.get("migrate-shard", "");
  bool manual_move = false;
  std::uint32_t mig_shard = 0;
  dsm::NodeId mig_node = dsm::kNoNode;
  if (!mig_spec.empty()) {
    if (!elastic) {
      std::cerr << "--migrate-shard needs --elastic\n";
      return 2;
    }
    const auto colon = mig_spec.find(':');
    try {
      if (colon == std::string::npos) throw std::invalid_argument(mig_spec);
      mig_shard = static_cast<std::uint32_t>(
          std::stoul(mig_spec.substr(0, colon)));
      mig_node = static_cast<dsm::NodeId>(
          std::stoul(mig_spec.substr(colon + 1)));
    } catch (const std::exception&) {
      std::cerr << "bad --migrate-shard spec '" << mig_spec
                << "' (want SHARD:NODE)\n";
      return 2;
    }
    if (mig_shard >= shards || mig_node >= nodes) {
      std::cerr << "--migrate-shard " << mig_spec << " out of range ("
                << shards << " shards, " << nodes << " nodes)\n";
      return 2;
    }
    manual_move = true;
  }
  shard::ShardedStore store(sys, scfg);
  if (manual_move && mig_node == store.control_node()) {
    std::cerr << "--migrate-shard target node " << mig_node
              << " is the reserved elastic control node\n";
    return 2;
  }

  load::GeneratorConfig gcfg;
  gcfg.seed = harness.seed();
  gcfg.requests = static_cast<std::uint64_t>(flags.get_int("requests", 2000));
  gcfg.rate_rps = flags.get_double("rate", 100'000.0);
  const std::string arrival = flags.get("arrival", "poisson");
  if (arrival == "poisson") {
    gcfg.arrival.kind = load::ArrivalKind::kPoisson;
  } else if (arrival == "uniform") {
    gcfg.arrival.kind = load::ArrivalKind::kUniform;
  } else if (arrival == "burst") {
    gcfg.arrival.kind = load::ArrivalKind::kBurst;
  } else {
    std::cerr << "unknown --arrival '" << arrival << "'\n";
    return 2;
  }
  const std::string dist = flags.get("dist", "zipfian");
  if (dist == "zipfian") {
    gcfg.keys.dist = load::KeyDist::kZipfian;
  } else if (dist == "uniform") {
    gcfg.keys.dist = load::KeyDist::kUniform;
  } else {
    std::cerr << "unknown --dist '" << dist << "'\n";
    return 2;
  }
  gcfg.keys.keys = static_cast<std::uint64_t>(flags.get_int("keys", 256));
  gcfg.keys.zipf_s = flags.get_double("zipf-s", 0.99);
  gcfg.read_fraction = flags.get_double("read-fraction", 0.5);
  gcfg.txn_fraction = flags.get_double("txn-fraction", 0.05);
  gcfg.rmw_fraction = flags.get_double("rmw-fraction", 0.0);
  gcfg.txn_keys =
      static_cast<std::uint32_t>(flags.get_int("txn-keys", 3));
  const std::string consistency =
      flags.get("consistency", scfg.lease.enabled ? "leased" : "linearizable");
  if (consistency == "linearizable") {
    gcfg.read_level = shard::ConsistencyLevel::kLinearizable;
  } else if (consistency == "leased") {
    gcfg.read_level = shard::ConsistencyLevel::kLeased;
  } else if (consistency == "snapshot") {
    gcfg.read_level = shard::ConsistencyLevel::kSnapshot;
  } else {
    std::cerr << "unknown --consistency '" << consistency << "'\n";
    return 2;
  }
  if (elastic && scfg.lease.server_nodes == 0 && nodes >= 2) {
    // Full replication reserves the last node as the directory-move
    // executor; keep it out of the client span so reconfigurations never
    // queue behind regular traffic on the same instruction stream.
    gcfg.node_span = nodes - 1;
  }
  load::Generator gen(gcfg);

  stats::ServiceReport report;
  if (report.shards.size() < store.shards()) {
    report.shards.resize(store.shards());
  }
  // Live telemetry: per-shard backlog/lock-queue/frame gauges plus
  // client-side queue depth, sampled on the sim clock throughout the run.
  auto& sampler = harness.sampler();
  store.register_telemetry(sampler, report);
  gen.register_telemetry(sampler);
  shard::Client client(store);
  auto drive = gen.run(client, report);
  std::optional<elastic::ElasticController> ctrl;
  if (elastic) {
    ctrl.emplace(store, report, sampler.series());
    ctrl->register_telemetry(sampler);
    ctrl->start();
  }
  const dsm::NodeId mig_from = manual_move ? store.root_of(mig_shard)
                                           : dsm::kNoNode;
  std::function<void()> fire_move;
  if (manual_move) {
    if (scfg.lease.server_nodes > 0 && mig_node >= scfg.lease.server_nodes) {
      std::cerr << "--migrate-shard target node " << mig_node
                << " is a client under --server-nodes "
                << scfg.lease.server_nodes << "\n";
      return 2;
    }
    // Fire shortly after start; if the controller already has a move in
    // flight, retry until the migrator frees up (one migration at a time).
    fire_move = [&] {
      if (ctrl->migrator().in_flight()) {
        sched.at(sched.now() + 10'000, fire_move);
        return;
      }
      (void)ctrl->migrator().migrate(mig_shard, mig_node);
    };
    sched.at(50'000, fire_move);
  }
  sampler.start(sched);
  sched.run();
  if (ctrl) ctrl->stop();
  sampler.sample_now(sched.now());  // final partial interval
  store.fill_report(report);
  telemetry::flag_overload(report, sampler.series());

  std::cout << report.format();

  // Latency attribution rollup across every traced request: the coverage
  // sweep (what ran during the window) next to the critical path (what
  // gated completion).
  const telemetry::Analysis analysis = harness.tracer().analyze();
  if (!analysis.ops.empty() && analysis.total_latency > 0) {
    std::cout << "latency attribution (" << analysis.ops.size()
              << " traced ops, " << analysis.orphan_spans << " orphan spans, "
              << analysis.incomplete_ops << " incomplete):\n"
              << "  bucket            sweep    path\n";
    for (std::size_t b = 0; b < telemetry::kBucketCount; ++b) {
      const auto ns = analysis.totals[b];
      const auto path_ns = analysis.path_totals[b];
      if (ns == 0 && path_ns == 0) continue;
      char line[128];
      std::snprintf(line, sizeof line, "  %-16s %6.2f%% %6.2f%%\n",
                    std::string(telemetry::bucket_name(
                                    static_cast<telemetry::Bucket>(b)))
                        .c_str(),
                    100.0 * static_cast<double>(ns) /
                        static_cast<double>(analysis.total_latency),
                    100.0 * static_cast<double>(path_ns) /
                        static_cast<double>(analysis.total_latency));
      std::cout << line;
    }
    char frac[128];
    std::snprintf(frac, sizeof frac,
                  "  critical path names %.2f%% of traced latency, %.2f%% of"
                  " the p99 tail\n",
                  100.0 * analysis.path_named_fraction(),
                  100.0 * analysis.p99_path_named_fraction());
    std::cout << frac;
  }
  if (harness.journaling()) {
    const auto& journal = harness.journal();
    std::cout << "decision journal: " << journal.size() << " events ("
              << journal.count(telemetry::Journal::Kind::kTxnAbort)
              << " txn aborts, "
              << journal.count(telemetry::Journal::Kind::kTxnRepair)
              << " txn repairs, "
              << journal.count(telemetry::Journal::Kind::kLeaseGrant)
              << " lease grants, "
              << journal.count(telemetry::Journal::Kind::kLeaseInvalidation)
              << " invalidations, "
              << journal.count(telemetry::Journal::Kind::kLeaseExpiry)
              << " expiries, "
              << journal.count(telemetry::Journal::Kind::kElasticDecision)
              << " elastic decisions";
    if (journal.dropped() > 0) {
      std::cout << "; " << journal.dropped() << " DROPPED";
    }
    std::cout << ")\n";
  }

  bool ok = true;
  if (!gen.done()) {
    std::cout << "GENERATOR STALLED: not all requests completed\n";
    ok = false;
  }
  if (!report.serializable()) {
    std::cout << "SERIALIZABILITY VIOLATION: a shard's version word does "
                 "not match its committed-write count\n";
    ok = false;
  }
  if (!store.replicas_converged()) {
    std::cout << "CONVERGENCE VIOLATION: replicas disagree after quiesce\n";
    ok = false;
  }
  if (soak) {
    std::cout << "fault / reliability report\n"
              << stats::format_fault_report(report.faults);
    std::cout << "GWC audit (" << checker.writes_checked()
              << " applied writes across " << shards
              << " shard groups): " << checker.report() << "\n";
    if (!checker.ok()) ok = false;
  }
  if (store.partial()) {
    // The auditor is the lease tier's independent witness: any serve of a
    // superseded epoch (or past TTL) fails the run, soak mode or not.
    const auto& auditor = store.leases()->auditor();
    std::cout << auditor.report() << "\n";
    if (!auditor.ok()) ok = false;
  }
  std::uint64_t el_migrations = 0;
  std::uint64_t el_splits = 0;
  std::uint64_t el_merges = 0;
  std::uint64_t el_promotions = 0;
  std::uint64_t el_demotions = 0;
  std::uint64_t el_redirects = 0;
  if (elastic) {
    for (std::uint32_t s = 0; s < store.shards(); ++s) {
      el_migrations += store.migrations(s);
      el_splits += store.splits(s);
      el_merges += store.merges(s);
      el_promotions += store.promotions(s);
      el_demotions += store.demotions(s);
      el_redirects += store.redirects(s);
    }
    std::cout << "elastic fabric: " << ctrl->actions()
              << " control actions (" << el_promotions << " promotions, "
              << el_splits << " splits, " << el_migrations
              << " migrations, " << el_merges << " merges, " << el_demotions
              << " demotions), " << el_redirects
              << " stale-directory redirects ("
              << client.stats().redirects
              << " client retries), directory epoch " << store.dir_epoch()
              << "\n";
    if (manual_move && mig_from != mig_node &&
        ctrl->migrator().stats().migrations == 0) {
      std::cout << "MANUAL MIGRATION DID NOT RUN: --migrate-shard "
                << mig_spec << " never completed\n";
      ok = false;
    }
  }

  auto& metrics = harness.metrics();
  metrics.row("service")
      .set("shards", shards)
      .set("offered_rps", report.offered_rps)
      .set("goodput_rps", report.goodput_rps())
      .set("messages", static_cast<double>(report.messages))
      .set("elapsed_ns", static_cast<double>(report.elapsed_ns));
  if (!analysis.ops.empty() && analysis.total_latency > 0) {
    auto& row = metrics.row("attribution")
                    .set("traced_ops",
                         static_cast<double>(analysis.ops.size()))
                    .set("named_fraction", analysis.named_fraction())
                    .set("path_named_fraction",
                         analysis.path_named_fraction())
                    .set("p99_path_named_fraction",
                         analysis.p99_path_named_fraction());
    for (std::size_t b = 0; b < telemetry::kBucketCount; ++b) {
      row.set("path_" +
                  std::string(telemetry::bucket_name(
                      static_cast<telemetry::Bucket>(b))) +
                  "_share",
              static_cast<double>(analysis.path_totals[b]) /
                  static_cast<double>(analysis.total_latency));
    }
  }
  if (elastic) {
    metrics.row("elastic")
        .set("control_actions", static_cast<double>(ctrl->actions()))
        .set("control_ticks", static_cast<double>(ctrl->ticks()))
        .set("dir_epoch", static_cast<double>(store.dir_epoch()))
        .set("migrations", static_cast<double>(el_migrations))
        .set("splits", static_cast<double>(el_splits))
        .set("merges", static_cast<double>(el_merges))
        .set("promotions", static_cast<double>(el_promotions))
        .set("demotions", static_cast<double>(el_demotions))
        .set("redirects", static_cast<double>(el_redirects))
        .set("client_redirects",
             static_cast<double>(client.stats().redirects))
        .set("handoff_replayed",
             static_cast<double>(ctrl->migrator().stats().handoff_replayed));
    for (std::uint32_t s = 0; s < store.shards(); ++s) {
      metrics.row("elastic,shard=" + std::to_string(s))
          .set("migrations", static_cast<double>(store.migrations(s)))
          .set("splits", static_cast<double>(store.splits(s)))
          .set("merges", static_cast<double>(store.merges(s)))
          .set("promotions", static_cast<double>(store.promotions(s)))
          .set("demotions", static_cast<double>(store.demotions(s)))
          .set("redirects", static_cast<double>(store.redirects(s)));
    }
  }
  for (const auto& s : report.shards) {
    const auto& w = s.op(stats::ServiceOp::kWrite).latency_ns;
    const auto& r = s.op(stats::ServiceOp::kRead).latency_ns;
    const auto& t = s.op(stats::ServiceOp::kTxn).latency_ns;
    const auto& m = s.op(stats::ServiceOp::kRmw).latency_ns;
    std::size_t hot_stripe = 0;
    std::uint64_t hot_conflicts = 0;
    for (std::size_t i = 0; i < s.stripe_conflicts.size(); ++i) {
      if (s.stripe_conflicts[i] > hot_conflicts) {
        hot_conflicts = s.stripe_conflicts[i];
        hot_stripe = i;
      }
    }
    metrics.row("shard=" + std::to_string(s.shard))
        .set("reads", static_cast<double>(s.op(stats::ServiceOp::kRead)
                                              .completed))
        .set("writes", static_cast<double>(s.op(stats::ServiceOp::kWrite)
                                               .completed))
        .set("txns", static_cast<double>(s.op(stats::ServiceOp::kTxn)
                                             .completed))
        .set("rmws", static_cast<double>(s.op(stats::ServiceOp::kRmw)
                                             .completed))
        .set("read_p99_ns", static_cast<double>(r.p99()))
        .set("write_p50_ns", static_cast<double>(w.p50()))
        .set("write_p99_ns", static_cast<double>(w.p99()))
        .set("write_p999_ns", static_cast<double>(w.p999()))
        .set("txn_p99_ns", static_cast<double>(t.p99()))
        .set("rmw_p99_ns", static_cast<double>(m.p99()))
        .set("txn_commits", static_cast<double>(s.txn_commits))
        .set("txn_aborts", static_cast<double>(s.txn_aborts))
        .set("txn_retries", static_cast<double>(s.txn_retries))
        .set("txn_fallbacks", static_cast<double>(s.txn_fallbacks))
        .set("txn_repairs", static_cast<double>(s.txn_repairs))
        .set("txn_abort_rate", s.txn_abort_rate())
        .set("aborts_read_clobber",
             static_cast<double>(s.aborts_read_clobber))
        .set("aborts_validation", static_cast<double>(s.aborts_validation))
        .set("aborts_dir_epoch", static_cast<double>(s.aborts_dir_epoch))
        .set("hot_stripe", static_cast<double>(hot_stripe))
        .set("hot_stripe_conflicts", static_cast<double>(hot_conflicts))
        .set("sequenced", static_cast<double>(s.sequenced))
        .set("frames", static_cast<double>(s.frames))
        .set("goodput_rps", report.shard_goodput_rps(s.shard))
        .set("drowning", s.drowning ? 1.0 : 0.0)
        .set("backlog_slope_per_s", s.backlog_slope_per_s)
        .set("final_backlog", s.final_backlog)
        .set("peak_backlog", s.peak_backlog);
    if (store.partial()) {
      metrics.row("lease,shard=" + std::to_string(s.shard))
          .set("hits", static_cast<double>(s.lease_hits))
          .set("grants", static_cast<double>(s.lease_grants))
          .set("invalidations", static_cast<double>(s.lease_invalidations))
          .set("remote_reads", static_cast<double>(s.remote_reads))
          .set("forwarded_ops", static_cast<double>(s.forwarded_ops))
          .set("hit_rate", s.lease_hit_rate());
    }
    metrics.lock(s.lock);
  }
  if (store.txn_stats().acquisitions > 0) metrics.lock(store.txn_stats());

  return harness.finish() && ok ? 0 : 1;
}
catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
