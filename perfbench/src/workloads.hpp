// The benchmark's four service traffic mixes.
//
// Each workload fixes the whole service configuration — topology, shard
// layout, lock/txn policy, lease and elastic tiers, fault plan — plus the
// open-loop traffic mix and two offered rates: a nominal rate below the
// latency knee (latency metrics) and an overload rate about twice the
// service's saturation point (capacity metric). Only the seed varies
// between runs. README.md in this directory gives each workload's reason.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "load/generator.hpp"
#include "shard/sharded_store.hpp"

namespace perfbench {

/// Every workload runs on a 4x4 torus.
inline constexpr std::uint32_t kNodes = 16;

struct Workload {
  std::string name;

  optsync::shard::ShardedStoreConfig store;
  /// Traffic mix. `seed`, `requests` and `rate_rps` are filled per run.
  optsync::load::GeneratorConfig traffic;

  /// Drop probability applied to every message class (0 = no fault plan,
  /// raw network). A nonzero value turns the reliable channel on.
  double drop_p = 0.0;

  double nominal_rps = 0.0;
  double overload_rps = 0.0;
  std::uint64_t nominal_requests = 0;
  std::uint64_t overload_requests = 0;
  /// Fixed per-request latency limit for slo_miss_frac (sim ns).
  std::int64_t slo_limit_ns = 0;
};

/// All workloads, in BENCHMARK.json order.
const std::vector<Workload>& workloads();

/// The named workload, or nullptr.
const Workload* find_workload(std::string_view name);

}  // namespace perfbench
