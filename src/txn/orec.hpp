// Ownership-record (orec) table for optimistic multi-key transactions.
//
// Classic STM orec design (orec-eager / OCC commit protocols) mapped onto
// the paper's DSM substrate: every registered site (one sharing group with
// its own root — a shard of the service layer) carries a fixed number of
// version stripes. Each stripe is an ordinary eagerly shared mutex-data
// variable guarded by its stripe lock (stripe_lock_index), so
//
//   * READING an orec is a local memory read on any member — optimistic
//     read versioning costs zero network traffic;
//   * BUMPING an orec is a sequenced group write issued while holding the
//     stripe's lock, so the bump rides the same GWC coalesced frames as the
//     data it versions. Grant-follows-data then gives validation its
//     teeth: once a committer's lock grant has applied locally, every
//     orec bump sequenced before that grant has applied too, so the local
//     replica of the orec table IS the owning root's view of it.
//
// An orec's word value is a pure version counter (no lock bit — write
// locking is encounter-time at the transaction layer via clobber
// interrupts, and commit-time exclusion comes from the stripe locks). Every
// committed write to a stripe, transactional or single-key, must bump the
// stripe exactly once.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dsm/system.hpp"

namespace optsync::txn {

using SiteId = std::uint32_t;

/// Which of a site's `locks` stripe locks guards orec `stripe`: stripe k
/// by lock k; stripes past the lock list — the elastic directory stripe,
/// or every stripe of a one-lock site — by lock 0.
constexpr std::size_t stripe_lock_index(std::uint32_t stripe,
                                        std::size_t locks) {
  return stripe < locks ? stripe : 0;
}

class OrecTable {
 public:
  /// `stripes` orecs are defined per added site.
  OrecTable(dsm::DsmSystem& sys, std::uint32_t stripes);

  OrecTable(const OrecTable&) = delete;
  OrecTable& operator=(const OrecTable&) = delete;

  /// Defines the site's orec stripe variables ("<name>.orec<k>") in group
  /// `g`, stripe k guarded by locks[stripe_lock_index(k, locks.size())].
  /// Returns the new site's id (dense, 0-based).
  SiteId add_site(const std::string& name, dsm::GroupId g,
                  const std::vector<dsm::VarId>& locks);

  [[nodiscard]] std::uint32_t stripes() const { return stripes_; }
  [[nodiscard]] std::uint32_t sites() const {
    return static_cast<std::uint32_t>(vars_.size());
  }

  /// Default stripe hash for callers without their own placement scheme.
  /// Callers that slot keys themselves (the sharded store) should pass
  /// their slot index instead, so that a write to a slot always bumps the
  /// stripe a reader of any colliding key validated against.
  [[nodiscard]] std::uint32_t stripe_of(std::uint64_t key) const;

  [[nodiscard]] dsm::VarId var(SiteId site, std::uint32_t stripe) const;
  [[nodiscard]] const std::vector<dsm::VarId>& site_vars(SiteId site) const;

  /// Local (zero-traffic) read of a stripe's version on node `n`.
  [[nodiscard]] dsm::Word version(dsm::NodeId n, SiteId site,
                                  std::uint32_t stripe) const;

  /// Sequenced +1 bump issued from node `n`. The caller must hold the
  /// stripe's lock or the root will filter the write as speculative.
  void bump(dsm::NodeId n, SiteId site, std::uint32_t stripe);

 private:
  dsm::DsmSystem* sys_;
  std::uint32_t stripes_;
  std::vector<std::vector<dsm::VarId>> vars_;  ///< [site][stripe]
};

}  // namespace optsync::txn
