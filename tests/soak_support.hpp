// Shared soak helpers: the streaming GWC audit every soak run wires into
// its DsmConfig, the drop + partition attack the service, span and
// transaction soaks replay over their own seed ranges, and the rig that
// drives one sharded service to quiescence.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>

#include "dsm/system.hpp"
#include "faults/fault_plan.hpp"
#include "load/generator.hpp"
#include "net/topology.hpp"
#include "shard/client.hpp"
#include "shard/sharded_store.hpp"
#include "trace/gwc_checker.hpp"
#include "trace/recorder.hpp"

namespace optsync::soak {

/// Recorder + checker pair for one soak run. A tiny ring suffices: the
/// checker is a streaming sink and sees every event before eviction.
struct GwcAudit {
  trace::Recorder recorder{1 << 10};
  trace::GwcChecker checker;
  GwcAudit() { checker.install(recorder); }
};

/// Drop + partition attack: 8% loss on lock and data traffic, 4%
/// duplication, plus a seeded link partition window early in the run (the
/// reliable channel must retransmit across the healed link).
inline faults::FaultPlan drop_partition_attack(std::uint64_t seed) {
  faults::FaultPlan plan(seed);
  plan.drop(0.08, "lock").drop(0.08, "data").duplicate(0.04);
  const auto a = static_cast<net::NodeId>(seed % 8);
  const auto b = static_cast<net::NodeId>((seed / 8 + 1 + a) % 8);
  if (a != b) plan.partition_link(a, b, 20'000, 220'000);
  return plan;
}

/// The default store config, sharded `n` ways.
inline shard::ShardedStoreConfig store_with_shards(std::uint32_t n) {
  shard::ShardedStoreConfig scfg;
  scfg.shards = n;
  return scfg;
}

/// One sharded service on a near-square torus of `nodes`, driven to
/// quiescence by one open-loop plan. The rig outlives the run so a test
/// can audit the store, its lease auditor and every member's applied log
/// afterwards.
struct ServiceRun {
  sim::Scheduler sched;
  net::MeshTorus2D topo;
  dsm::DsmSystem sys;
  shard::ShardedStore store;
  stats::ServiceReport report;

  ServiceRun(std::uint32_t nodes, const dsm::DsmConfig& cfg,
             const shard::ShardedStoreConfig& scfg)
      : topo(net::MeshTorus2D::near_square(nodes)),
        sys(sched, topo, cfg),
        store(sys, scfg) {}

  /// Replays `gcfg` to quiescence and rolls the store into `report`.
  void drive(const load::GeneratorConfig& gcfg) {
    load::Generator gen(gcfg);
    shard::Client client(store);
    auto drive = gen.run(client, report);
    sched.run();
    drive.rethrow_if_failed();
    store.fill_report(report);
    EXPECT_TRUE(gen.done());
  }
};

}  // namespace optsync::soak
