#include "shard/client.hpp"

#include "simkern/assert.hpp"

namespace optsync::shard {

sim::Process Client::sync_route(dsm::NodeId n, std::vector<Key> keys) {
  for (;;) {
    bool stale = false;
    for (const Key key : keys) {
      const ShardedStore::Route r = store_->route(key, view_epoch_);
      if (!r.stale) continue;
      stale = true;
      ++stats_.redirects;
      co_await store_->redirect_probe(n, r.believed).join();
    }
    if (const std::uint64_t now = store_->dir_epoch(); now != view_epoch_) {
      view_epoch_ = now;
      ++stats_.refreshes;
    }
    if (!stale) co_return;
    // Re-check at the refreshed epoch: the directory can move again while
    // a probe is in flight.
  }
}

sim::Process Client::read(dsm::NodeId n, Key key,
                          std::optional<dsm::Word>* out, ReadOptions opts) {
  if (store_->elastic()) co_await sync_route(n, std::vector<Key>(1, key)).join();
  co_await store_->read_op(n, key, out, opts.level).join();
}

sim::Process Client::write(dsm::NodeId n, Key key, dsm::Word value) {
  if (store_->elastic()) co_await sync_route(n, std::vector<Key>(1, key)).join();
  co_await store_->write_op(n, key, value).join();
}

sim::Process Client::txn(dsm::NodeId n, TxnRequest req, TxnResult* result,
                         ReadOptions opts) {
  const int classes = (!req.puts.empty() ? 1 : 0) +
                      (!req.adds.empty() ? 1 : 0) +
                      (!req.reads.empty() ? 1 : 0);
  OPTSYNC_EXPECT(classes == 1);
  const bool add = !req.adds.empty();
  std::vector<std::pair<Key, dsm::Word>> kvs = std::move(req.puts);
  for (const Key key : req.adds) kvs.emplace_back(key, req.delta);
  if (store_->elastic()) {
    std::vector<Key> keys = req.reads;
    for (const auto& kv : kvs) keys.push_back(kv.first);
    co_await sync_route(n, std::move(keys)).join();
  }
  if (!kvs.empty()) {
    co_await store_->multi_write_op(n, std::move(kvs), add).join();
    co_return;
  }
  OPTSYNC_EXPECT(result != nullptr);
  co_await store_
      ->multi_get_op(n, std::move(req.reads), &result->values, opts.level)
      .join();
}

}  // namespace optsync::shard
