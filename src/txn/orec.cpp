#include "txn/orec.hpp"

#include "simkern/assert.hpp"
#include "simkern/random.hpp"

namespace optsync::txn {

OrecTable::OrecTable(dsm::DsmSystem& sys, std::uint32_t stripes)
    : sys_(&sys), stripes_(stripes) {
  OPTSYNC_EXPECT(stripes >= 1);
}

SiteId OrecTable::add_site(const std::string& name, dsm::GroupId g,
                           const std::vector<dsm::VarId>& locks) {
  OPTSYNC_EXPECT(!locks.empty());
  std::vector<dsm::VarId> vars;
  vars.reserve(stripes_);
  for (std::uint32_t k = 0; k < stripes_; ++k) {
    vars.push_back(sys_->define_mutex_data(
        name + ".orec" + std::to_string(k), g,
        locks[stripe_lock_index(k, locks.size())], 0));
  }
  vars_.push_back(std::move(vars));
  return static_cast<SiteId>(vars_.size() - 1);
}

std::uint32_t OrecTable::stripe_of(std::uint64_t key) const {
  return static_cast<std::uint32_t>(sim::SplitMix64(key ^ 0x03ec0ull).next() %
                                    stripes_);
}

dsm::VarId OrecTable::var(SiteId site, std::uint32_t stripe) const {
  return vars_.at(site).at(stripe);
}

const std::vector<dsm::VarId>& OrecTable::site_vars(SiteId site) const {
  return vars_.at(site);
}

dsm::Word OrecTable::version(dsm::NodeId n, SiteId site,
                             std::uint32_t stripe) const {
  return sys_->node(n).read(var(site, stripe));
}

void OrecTable::bump(dsm::NodeId n, SiteId site, std::uint32_t stripe) {
  auto& node = sys_->node(n);
  const dsm::VarId v = var(site, stripe);
  node.write(v, node.read(v) + 1);
}

}  // namespace optsync::txn
