// ElasticController: the closed loop from telemetry to topology.
//
// Inputs, per control tick:
//   * the overload detector's verdict per base shard —
//     telemetry::assess_backlog over the live "optsync_shard_backlog"
//     series the standard service gauges maintain (the same series the
//     end-of-run drowning flags are computed from), and
//   * the per-shard KeySketch (fed by ShardedStore's access observer):
//     which single keys dominate a drowning shard's traffic.
//
// Outputs, at most one per cooldown window:
//   * hot-key promotion — a key carrying >= hot_key_share of its shard's
//     accesses is pinned to the least-loaded dedicated hot group
//     (DirectoryManager::promote);
//   * stripe split — otherwise, under the range policy, the drowning
//     shard donates the upper half of its remaining stripe to the coldest
//     base shard (DirectoryManager::split);
//   * root migration — otherwise, when the drowning shard's root node
//     hosts more roots than the least-loaded member, the sequencer moves
//     there online (RootMigrator::migrate).
// And in quiet ticks the inverse actions: pins whose keys went cold are
// demoted, donations whose src AND dst are both cold are merged back.
//
// Hysteresis, so the loop cannot flap: a shard must be flagged drowning
// for `drowning_ticks` CONSECUTIVE ticks before any action; every action
// starts a `cooldown_ticks` quiet period; at most one action is in flight
// at any time; demotion requires `cold_ticks` consecutive cold windows.
//
// Determinism: ticks are ordinary housekeeping events off the sim
// scheduler, re-armed only while the simulation is busy (the Sampler
// idiom); decisions read only deterministic state.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "elastic/directory_manager.hpp"
#include "elastic/key_sketch.hpp"
#include "elastic/migrator.hpp"
#include "shard/shard_map.hpp"
#include "simkern/time.hpp"
#include "stats/service_report.hpp"
#include "telemetry/overload.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/series.hpp"

namespace optsync::shard {
class ShardedStore;
}

namespace optsync::elastic {

struct ElasticControllerConfig {
  /// Control tick period. Coarser than the telemetry sampler on purpose:
  /// the detector needs a few samples of history per decision.
  sim::Duration interval_ns = 100'000;

  /// Overload detector tuning for the LIVE verdict (mid-run series are
  /// shorter than end-of-run ones, so the defaults are slightly laxer
  /// than telemetry::OverloadConfig's).
  telemetry::OverloadConfig overload{};

  // --- hysteresis --------------------------------------------------------
  std::uint32_t drowning_ticks = 2;  ///< consecutive verdicts before acting
  std::uint32_t cooldown_ticks = 3;  ///< quiet ticks after every action
  std::uint32_t cold_ticks = 4;      ///< cold windows before demotion

  // --- policy ------------------------------------------------------------
  /// A single key carrying at least this share of its shard's recorded
  /// accesses is promotion-worthy.
  double hot_key_share = 0.15;
  /// Pins per hot group the controller will not exceed.
  std::uint32_t max_pins_per_hot = 4;
  /// A pinned key with fewer recorded accesses than this in a window is
  /// cold (one strike toward demotion).
  std::uint64_t min_hot_accesses = 4;
  /// Backlog at/below which a shard counts as cold for merge-back.
  double merge_backlog_max = 4.0;
  /// Enable the root-migration escape hatch.
  bool migrate_roots = true;

  std::size_t sketch_capacity = 8;
};

class ElasticController {
 public:
  /// `store`, `live`, and `series` must outlive the controller. `live` is
  /// the report the generator updates during the run; `series` is the
  /// SeriesSet the telemetry sampler appends to (the backlog series must
  /// be registered there via ShardedStore::register_telemetry).
  ElasticController(shard::ShardedStore& store,
                    const stats::ServiceReport& live,
                    const telemetry::SeriesSet& series,
                    ElasticControllerConfig cfg = {});

  ElasticController(const ElasticController&) = delete;
  ElasticController& operator=(const ElasticController&) = delete;

  /// Arms the periodic control tick and installs the access observer that
  /// feeds the key sketches.
  void start();
  /// Cancels any pending tick (the observer stays installed; it is cheap).
  void stop();

  /// Live gauges: per-base-shard top-key share and the directory epoch.
  void register_telemetry(telemetry::Sampler& sampler);

  // --- introspection -----------------------------------------------------
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }
  [[nodiscard]] std::uint64_t actions() const { return actions_; }
  [[nodiscard]] RootMigrator& migrator() { return migrator_; }
  [[nodiscard]] const RootMigrator& migrator() const { return migrator_; }
  [[nodiscard]] DirectoryManager& directory() { return dir_; }
  [[nodiscard]] const DirectoryManager& directory() const { return dir_; }
  [[nodiscard]] const KeySketch& sketch(shard::ShardId s) const {
    return sketches_.at(s);
  }
  [[nodiscard]] const ElasticControllerConfig& config() const { return cfg_; }

 private:
  void tick();
  /// Escalation ladder for one drowning shard: promote, else split, else
  /// migrate. Starts the cooldown when an action launched.
  void act_on(shard::ShardId s);
  /// Runs one mutation with the in-flight flag held.
  sim::Process run_action(std::function<sim::Process()> thunk);
  /// Evict-and-replace as ONE action: demote `victim`, then promote
  /// `cand` into the slot it freed (single cooldown window — the path a
  /// hotspot shift exercises for every displaced pin).
  sim::Process swap_pin(shard::Key victim, shard::Key cand);
  void launch(std::function<sim::Process()> thunk);
  [[nodiscard]] double backlog(shard::ShardId s) const;
  /// Least-pinned hot group with capacity, or shards() when none.
  [[nodiscard]] shard::ShardId pick_hot_group() const;
  /// Coldest non-drowning base shard != s, or base_shards() when none.
  [[nodiscard]] shard::ShardId pick_split_target(shard::ShardId s) const;
  /// Member node hosting the fewest roots (control node excluded), or
  /// kNoNode when the current placement is already minimal.
  [[nodiscard]] dsm::NodeId pick_migration_target(shard::ShardId s) const;
  void maybe_relax();  ///< demotions and merge-backs in quiet ticks
  /// Journals one ladder step with the inputs that triggered it: the
  /// shard's cached overload verdict (slope/peak from this tick), its
  /// live backlog, the sketch's top key + share, and the hysteresis state
  /// (`streak` is the relevant counter — drowning streak for escalations,
  /// cold-window count for demotions). No-op without a journal.
  void journal_step(const char* step, shard::ShardId s, std::uint32_t target,
                    std::uint32_t streak);

  shard::ShardedStore* store_;
  const stats::ServiceReport* live_;
  const telemetry::SeriesSet* series_;
  ElasticControllerConfig cfg_;
  RootMigrator migrator_;
  DirectoryManager dir_;
  std::vector<KeySketch> sketches_;    ///< indexed by owner ShardId
  std::vector<std::uint32_t> streak_;  ///< consecutive drowning ticks
  /// This tick's overload verdict per base shard (decision-journal inputs).
  std::vector<telemetry::OverloadVerdict> verdict_;
  /// Consecutive cold windows per promoted key (demotion hysteresis).
  std::unordered_map<shard::Key, std::uint32_t> pin_cold_;
  std::uint32_t cooldown_ = 0;
  bool action_busy_ = false;
  sim::EventId pending_ = 0;
  std::uint64_t ticks_ = 0;
  std::uint64_t actions_ = 0;
};

}  // namespace optsync::elastic
