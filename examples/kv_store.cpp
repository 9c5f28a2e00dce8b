// A replicated key-value store on the optsync stack — what a downstream
// user actually builds with this library.
//
// The heavy lifting now lives in the library: shard::ShardedStore stripes
// the namespace over independent sharing groups (one lock + root + slot set
// per shard, roots spread across the machine), routes each put through the
// per-shard lock protocol, and keeps the serializability ledger. Gets are
// LOCAL reads (eagersharing keeps every replica warm); an uncontended shard
// commits a put in roughly its compute time — the lock round trip rides
// under it. This file is just clients plus reporting; compare with the
// pre-refactor revision to see the hand-rolled bucket machinery the store
// replaced.
#include <iostream>
#include <vector>

#include "dsm/system.hpp"
#include "shard/client.hpp"
#include "shard/sharded_store.hpp"
#include "simkern/random.hpp"

using namespace optsync;

namespace {

constexpr std::size_t kNodes = 16;
constexpr std::uint32_t kShards = 8;  // was: hand-rolled buckets

struct Counters {
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t get_hits = 0;
};

sim::Process worker(shard::Client& kv, Counters& counters, dsm::NodeId me,
                    std::uint64_t seed) {
  auto& sched = kv.store().system().scheduler();
  sim::Rng rng(seed);
  for (int op = 0; op < 40; ++op) {
    co_await sim::delay(sched,
                        static_cast<sim::Duration>(rng.exponential(30'000)));
    const auto key = static_cast<shard::Key>(1 + rng.below(24));
    if (rng.chance(0.3)) {
      ++counters.puts;
      co_await kv.write(me, key, static_cast<dsm::Word>(key) * 1000 + me)
          .join();
    } else {
      ++counters.gets;
      std::optional<dsm::Word> got;
      co_await kv.read(me, key, &got).join();
      if (got.has_value()) ++counters.get_hits;
    }
  }
}

}  // namespace

int main() {
  sim::Scheduler sched;
  const net::MeshTorus2D topo = net::MeshTorus2D::near_square(kNodes);
  dsm::DsmSystem sys(sched, topo, dsm::DsmConfig{});

  shard::ShardedStoreConfig cfg;
  cfg.shards = kShards;
  cfg.slots_per_shard = 4;
  cfg.root_stride = 2;  // spread roots (lock managers) across the machine
  shard::ShardedStore store(sys, cfg);
  shard::Client kv(store);

  Counters counters;
  std::vector<sim::Process> procs;
  for (dsm::NodeId i = 0; i < kNodes; ++i) {
    procs.push_back(worker(kv, counters, i, 1000 + i));
  }
  sched.run();
  for (const auto& p : procs) p.rethrow_if_failed();

  std::uint64_t speculations = 0, successes = 0, rollbacks = 0;
  for (shard::ShardId s = 0; s < kShards; ++s) {
    const auto& ls = store.lock_stats(s);
    speculations += ls.speculative_attempts;
    successes += ls.speculative_commits;
    rollbacks += ls.rollbacks;
  }

  std::cout << "replicated KV store: " << kNodes << " replicas, " << kShards
            << " buckets\n"
            << "  puts                  " << counters.puts << "\n"
            << "  gets                  " << counters.gets << " ("
            << counters.get_hits << " hits, all local reads)\n"
            << "  speculative puts      " << speculations << " ("
            << successes << " committed without waiting, " << rollbacks
            << " rolled back)\n"
            << "  simulated time        " << sim::format_time(sched.now())
            << "\n"
            << "  messages              " << sys.network().stats().messages
            << "\n\nReplicas agree on every slot:\n";
  const bool consistent = store.replicas_converged();
  std::cout << (consistent ? "  CONSISTENT\n" : "  DIVERGED (BUG)\n");
  return consistent ? 0 : 1;
}
