// Decision-journal unit tests: typed appends, the bounded pool's drop
// accounting, and the optsync-journal/1 JSON document — round-tripped
// through the stats JSON parser dsm_inspect reads it back with.
#include "telemetry/journal.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "stats/json_parse.hpp"

namespace optsync::telemetry {
namespace {

TEST(Journal, TypedAppendsLandWithKindAndFields) {
  Journal j;
  j.txn_abort(100, AbortReason::kCommitValidation, /*node=*/3, /*shard=*/1,
              /*stripe=*/7, /*owner=*/9, /*attempt=*/2);
  j.lease_grant(200, /*node=*/4, /*shard=*/0, /*slot=*/5, /*epoch_old=*/10,
                /*epoch_new=*/11);
  j.lease_expiry(300, /*node=*/4, /*shard=*/0, /*slot=*/5, /*epoch=*/11);
  j.elastic_decision(400, "promote", /*shard=*/1, /*target=*/4,
                     /*slope_per_s=*/32000.0, /*peak_backlog=*/36.0,
                     /*backlog=*/20.0, /*top_key=*/17, /*top_share=*/0.58,
                     /*streak=*/2, /*cooldown=*/0);
  ASSERT_EQ(j.size(), 4u);
  EXPECT_EQ(j.count(Journal::Kind::kTxnAbort), 1u);
  EXPECT_EQ(j.count(Journal::Kind::kLeaseGrant), 1u);
  EXPECT_EQ(j.count(Journal::Kind::kLeaseExpiry), 1u);
  EXPECT_EQ(j.count(Journal::Kind::kElasticDecision), 1u);
  EXPECT_EQ(j.count(Journal::Kind::kLeaseInvalidation), 0u);

  const auto& abort = j.events()[0];
  EXPECT_EQ(abort.kind, Journal::Kind::kTxnAbort);
  EXPECT_EQ(abort.reason, AbortReason::kCommitValidation);
  EXPECT_EQ(abort.stripe, 7u);
  EXPECT_EQ(abort.owner, 9u);
  // Expiry records a zero epoch delta (old == new).
  const auto& expiry = j.events()[2];
  EXPECT_EQ(expiry.epoch_old, expiry.epoch_new);
  const auto& decision = j.events()[3];
  EXPECT_STREQ(decision.step, "promote");
  EXPECT_EQ(decision.target, 4u);
  EXPECT_EQ(decision.streak, 2u);
}

TEST(Journal, PoolDropsAtCapacityWithoutPerturbingContents) {
  Journal j(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    j.txn_abort(static_cast<sim::Time>(i), AbortReason::kReadSetClobber,
                static_cast<std::uint32_t>(i), 0, 0, 0, 0);
  }
  EXPECT_EQ(j.size(), 4u);
  EXPECT_EQ(j.capacity(), 4u);
  EXPECT_EQ(j.dropped(), 6u);
  // The pool keeps the FIRST records (forensics of how trouble started),
  // never shifts.
  EXPECT_EQ(j.events().front().node, 0u);
  EXPECT_EQ(j.events().back().node, 3u);
}

TEST(Journal, NamesAreStableStrings) {
  EXPECT_STREQ(abort_reason_name(AbortReason::kReadSetClobber),
               "read_set_clobber");
  EXPECT_STREQ(abort_reason_name(AbortReason::kCommitValidation),
               "commit_validation");
  EXPECT_STREQ(abort_reason_name(AbortReason::kDirectoryEpoch),
               "directory_epoch");
  EXPECT_STREQ(abort_reason_name(AbortReason::kFallbackEscalation),
               "fallback_escalation");
  EXPECT_STREQ(Journal::kind_name(Journal::Kind::kTxnAbort), "txn_abort");
  EXPECT_STREQ(Journal::kind_name(Journal::Kind::kElasticDecision),
               "elastic_decision");
}

TEST(Journal, JsonRoundTripsThroughTheParser) {
  Journal j(/*capacity=*/8);
  j.txn_abort(100, AbortReason::kDirectoryEpoch, 3, 1, 7, 9, 1);
  j.lease_invalidation(200, 4, 0, 5, 10, 11);
  j.elastic_decision(400, "split", 2, 6, 1500.0, 40.0, 25.0, 99, 0.7, 3, 1);
  for (int i = 0; i < 10; ++i) {
    j.lease_grant(500 + i, 0, 0, 0, 0, 1);
  }
  std::ostringstream out;
  j.write_json(out);

  const auto parsed = stats::parse_json(out.str());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const auto& doc = parsed.value;
  EXPECT_EQ(doc["schema"].as_string(), "optsync-journal/1");
  EXPECT_EQ(doc["dropped"].as_uint(), j.dropped());
  const auto& events = doc["events"];
  ASSERT_EQ(events.size(), j.size());

  EXPECT_EQ(events[0]["kind"].as_string(), "txn_abort");
  EXPECT_EQ(events[0]["reason"].as_string(), "directory_epoch");
  EXPECT_EQ(events[0]["stripe"].as_uint(), 7u);
  EXPECT_EQ(events[0]["owner"].as_uint(), 9u);

  EXPECT_EQ(events[1]["kind"].as_string(), "lease_invalidation");
  EXPECT_EQ(events[1]["epoch_old"].as_uint(), 10u);
  EXPECT_EQ(events[1]["epoch_new"].as_uint(), 11u);

  EXPECT_EQ(events[2]["kind"].as_string(), "elastic_decision");
  EXPECT_EQ(events[2]["step"].as_string(), "split");
  EXPECT_EQ(events[2]["target"].as_uint(), 6u);
  EXPECT_NEAR(events[2]["top_share"].as_double(), 0.7, 1e-9);
  EXPECT_EQ(events[2]["streak"].as_uint(), 3u);
  EXPECT_EQ(events[2]["cooldown"].as_uint(), 1u);
}

TEST(Journal, TxnRepairRecordCarriesItsAttribution) {
  Journal j;
  j.txn_repair(700, /*node=*/5, /*shard=*/2, /*stripe=*/11, /*attempt=*/1,
               /*stale_stripes=*/3);
  EXPECT_EQ(j.count(Journal::Kind::kTxnRepair), 1u);
  EXPECT_EQ(j.count(Journal::Kind::kTxnAbort), 0u);
  EXPECT_STREQ(Journal::kind_name(Journal::Kind::kTxnRepair), "txn_repair");
  std::ostringstream out;
  j.write_json(out);
  const auto parsed = stats::parse_json(out.str());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const auto& e = parsed.value["events"][0];
  EXPECT_EQ(e["kind"].as_string(), "txn_repair");
  EXPECT_EQ(e["t"].as_uint(), 700u);
  EXPECT_EQ(e["node"].as_uint(), 5u);
  EXPECT_EQ(e["shard"].as_uint(), 2u);
  EXPECT_EQ(e["stripe"].as_uint(), 11u);
  EXPECT_EQ(e["attempt"].as_uint(), 1u);
  EXPECT_EQ(e["stale_stripes"].as_uint(), 3u);
  // A repair is not an abort: no reason, no owner.
  EXPECT_FALSE(e.contains("reason"));
  EXPECT_FALSE(e.contains("owner"));
}

TEST(Journal, ParserRejectsGarbageAndTruncation) {
  EXPECT_FALSE(stats::parse_json("{bad").ok);
  EXPECT_FALSE(stats::parse_json("").ok);
  EXPECT_FALSE(stats::parse_json("{\"a\": 1} trailing").ok);
  EXPECT_TRUE(stats::parse_json("{\"a\": [1, 2, {\"b\": null}]}").ok);
}

}  // namespace
}  // namespace optsync::telemetry
