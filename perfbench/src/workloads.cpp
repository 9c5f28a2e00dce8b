#include "workloads.hpp"

namespace perfbench {

namespace {

using optsync::load::KeyDist;
using optsync::shard::ConsistencyLevel;
using optsync::shard::LockPolicy;
using optsync::shard::ShardMap;
using optsync::shard::TxnMode;

Workload kv_mixed_uniform() {
  Workload w;
  w.name = "kv_mixed_uniform";
  w.store.shards = 8;
  w.store.lock = LockPolicy::kAdaptive;
  w.traffic.keys.dist = KeyDist::kUniform;
  w.traffic.keys.keys = 4096;
  w.traffic.read_fraction = 0.50;
  w.traffic.txn_fraction = 0.05;
  w.traffic.txn_keys = 3;
  w.nominal_rps = 2'500'000.0;
  w.overload_rps = 8'000'000.0;
  w.nominal_requests = 200'000;
  w.overload_requests = 100'000;
  w.slo_limit_ns = 10'000;
  return w;
}

Workload read_mostly_leased() {
  Workload w;
  w.name = "read_mostly_leased";
  w.store.shards = 16;
  w.store.lease.server_nodes = 4;
  w.store.lease.enabled = true;
  w.traffic.keys.dist = KeyDist::kZipfian;
  w.traffic.keys.keys = 1024;
  w.traffic.read_fraction = 0.95;
  w.traffic.txn_fraction = 0.0;
  w.traffic.read_level = ConsistencyLevel::kLeased;
  w.drop_p = 0.002;
  w.nominal_rps = 10'000'000.0;
  w.overload_rps = 60'000'000.0;
  w.nominal_requests = 600'000;
  w.overload_requests = 200'000;
  w.slo_limit_ns = 15'000;
  return w;
}

Workload txn_contended() {
  Workload w;
  w.name = "txn_contended";
  w.store.shards = 4;
  w.store.txn.mode = TxnMode::kOcc;
  w.traffic.keys.dist = KeyDist::kZipfian;
  w.traffic.keys.keys = 64;
  w.traffic.read_fraction = 0.10;
  w.traffic.txn_fraction = 0.20;
  w.traffic.rmw_fraction = 0.40;
  w.traffic.txn_keys = 4;
  w.nominal_rps = 100'000.0;
  w.overload_rps = 400'000.0;
  w.nominal_requests = 200'000;
  w.overload_requests = 20'000;
  w.slo_limit_ns = 30'000;
  return w;
}

Workload hotspot_shift() {
  Workload w;
  w.name = "hotspot_shift";
  w.store.shards = 4;
  w.store.policy = ShardMap::Policy::kRange;
  w.store.key_space = 1024;
  w.store.elastic.enabled = true;
  w.store.elastic.hot_groups = 3;
  w.traffic.keys.dist = KeyDist::kZipfian;
  w.traffic.keys.keys = 1024;
  w.traffic.keys.shift_offset = 512;  // head jumps to the opposite half
  w.traffic.node_span = kNodes - 1;  // the control node carries no traffic
  w.traffic.read_fraction = 0.25;
  w.traffic.txn_fraction = 0.05;
  w.nominal_rps = 600'000.0;
  w.overload_rps = 2'000'000.0;
  w.nominal_requests = 200'000;
  w.overload_requests = 60'000;
  w.slo_limit_ns = 10'000;
  return w;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      kv_mixed_uniform(), read_mostly_leased(), txn_contended(),
      hotspot_shift()};
  return all;
}

const Workload* find_workload(std::string_view name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench
