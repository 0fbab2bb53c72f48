#include "sim/session.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "test_util.hpp"

namespace pcf::sim {
namespace {

using core::Values;

std::vector<Values> scalar_inputs(std::span<const double> values) {
  std::vector<Values> out;
  out.reserve(values.size());
  for (double v : values) out.push_back(Values{v});
  return out;
}

TEST(ReductionSession, FirstQueryMatchesColdReduction) {
  const auto t = net::Topology::hypercube(4);
  const auto values = test::random_values(t.size(), 3);
  SessionOptions options;
  options.seed = 3;
  options.target_accuracy = 1e-11;
  ReductionSession session(t, scalar_inputs(values), options);
  const auto reply = session.query(scalar_inputs(values));
  EXPECT_TRUE(reply.reached_target);
  double expected = 0.0;
  for (double v : values) expected += v;
  for (net::NodeId i = 0; i < t.size(); ++i) {
    EXPECT_NEAR(reply.estimate(i), expected, 1e-9 * std::abs(expected));
  }
}

TEST(ReductionSession, WarmQueriesAreMuchCheaperThanCold) {
  // Monitoring scenario: inputs drift by ~0.01% between queries. Rounds
  // scale with the decades of error to close: the cold start descends from
  // O(1) to 1e-10, a warm query only from the drift size (1e-4) — so warm
  // queries cost roughly (4+6)/10 → the ratio tracks
  // log(drift)/log(target).
  const auto t = net::Topology::hypercube(5);
  auto values = test::random_values(t.size(), 7);
  for (auto& v : values) v += 1.0;  // keep magnitudes comparable
  SessionOptions options;
  options.seed = 7;
  options.target_accuracy = 1e-10;
  ReductionSession session(t, scalar_inputs(values), options);
  const auto cold = session.query(scalar_inputs(values));
  ASSERT_TRUE(cold.reached_target);

  Rng drift(99);
  std::size_t warm_total = 0;
  for (int q = 0; q < 10; ++q) {
    for (auto& v : values) v *= 1.0 + drift.uniform(-1e-4, 1e-4);
    const auto reply = session.query(scalar_inputs(values));
    ASSERT_TRUE(reply.reached_target) << "query " << q;
    warm_total += reply.rounds;
    double expected = 0.0;
    for (double v : values) expected += v;
    EXPECT_NEAR(reply.estimate(0), expected, 1e-8 * expected);
  }
  const double mean_warm = static_cast<double>(warm_total) / 10.0;
  EXPECT_LT(mean_warm, 0.6 * static_cast<double>(cold.rounds))
      << "cold " << cold.rounds << " mean warm " << mean_warm;
}

TEST(ReductionSession, UnchangedQueryIsNearlyFree) {
  const auto t = net::Topology::hypercube(4);
  const auto values = test::random_values(t.size(), 9);
  SessionOptions options;
  options.seed = 9;
  options.target_accuracy = 1e-10;
  ReductionSession session(t, scalar_inputs(values), options);
  const auto cold = session.query(scalar_inputs(values));
  const auto again = session.query(scalar_inputs(values));
  EXPECT_TRUE(again.reached_target);
  EXPECT_LE(again.rounds, 2u);  // already at target; one probe round
  EXPECT_GT(cold.rounds, 20u);
}

TEST(ReductionSession, SurvivesLinkFailureBetweenQueries) {
  const auto t = net::Topology::hypercube(4);
  auto values = test::random_values(t.size(), 11);
  for (auto& v : values) v += 1.0;
  SessionOptions options;
  options.seed = 11;
  options.target_accuracy = 1e-10;
  ReductionSession session(t, scalar_inputs(values), options);
  ASSERT_TRUE(session.query(scalar_inputs(values)).reached_target);
  session.fail_link(0, 1);
  values[3] += 0.25;
  const auto reply = session.query(scalar_inputs(values));
  EXPECT_TRUE(reply.reached_target);
  double expected = 0.0;
  for (double v : values) expected += v;
  EXPECT_NEAR(reply.estimate(0), expected, 1e-8 * expected);
}

TEST(ReductionSession, SurvivesContinuousMessageLoss) {
  const auto t = net::Topology::hypercube(4);
  auto values = test::random_values(t.size(), 13);
  for (auto& v : values) v += 1.0;
  SessionOptions options;
  options.seed = 13;
  options.target_accuracy = 1e-9;
  options.faults.message_loss_prob = 0.15;
  ReductionSession session(t, scalar_inputs(values), options);
  for (int q = 0; q < 4; ++q) {
    values[q] += 0.5;
    const auto reply = session.query(scalar_inputs(values));
    EXPECT_TRUE(reply.reached_target) << q;
  }
}

TEST(ReductionSession, VectorPayloadQueries) {
  const auto t = net::Topology::ring(6);
  std::vector<Values> inputs(6);
  for (std::size_t i = 0; i < 6; ++i) {
    inputs[i] = Values{static_cast<double>(i), 1.0};
  }
  SessionOptions options;
  options.target_accuracy = 1e-10;
  options.aggregate = core::Aggregate::kSum;
  ReductionSession session(t, inputs, options);
  auto reply = session.query(inputs);
  EXPECT_NEAR(reply.estimate(0, 0), 15.0, 1e-8);
  EXPECT_NEAR(reply.estimate(0, 1), 6.0, 1e-8);
  inputs[2][0] += 10.0;
  reply = session.query(inputs);
  EXPECT_NEAR(reply.estimate(0, 0), 25.0, 1e-8);
}

TEST(ReductionSession, RejectsDimensionChanges) {
  const auto t = net::Topology::ring(4);
  std::vector<Values> inputs(4, Values{1.0});
  ReductionSession session(t, inputs, {});
  std::vector<Values> wrong(4, Values{1.0, 2.0});
  EXPECT_THROW(session.query(wrong), ContractViolation);
}

TEST(ReductionSession, AverageAggregateSessions) {
  const auto t = net::Topology::hypercube(3);
  auto values = test::random_values(t.size(), 17);
  SessionOptions options;
  options.aggregate = core::Aggregate::kAverage;
  options.target_accuracy = 1e-11;
  ReductionSession session(t, scalar_inputs(values), options);
  values[5] += 2.0;
  const auto reply = session.query(scalar_inputs(values));
  double expected = 0.0;
  for (double v : values) expected += v;
  expected /= 8.0;
  EXPECT_NEAR(reply.estimate(4), expected, 1e-9);
}

TEST(ReductionSession, ForwardsShardsAndInvariants) {
  // Regression: the session once forwarded only algorithm/reducer/faults/seed
  // to the engine, silently dropping shards — every session ran single-shard
  // no matter what the caller asked for.
  const auto t = net::Topology::ring(8);
  const auto values = test::random_values(t.size(), 23);
  SessionOptions serial_options;
  serial_options.seed = 23;
  serial_options.target_accuracy = 1e-10;
  serial_options.invariants.enabled = true;
  SessionOptions sharded_options = serial_options;
  sharded_options.shards = 2;
  ReductionSession serial(t, scalar_inputs(values), serial_options);
  ReductionSession sharded(t, scalar_inputs(values), sharded_options);
  EXPECT_EQ(serial.engine().shards(), 1u);
  EXPECT_EQ(sharded.engine().shards(), 2u) << "options.shards was not forwarded";
  EXPECT_NE(serial.engine().invariants(), nullptr) << "options.invariants was not forwarded";
  const auto a = serial.query(scalar_inputs(values));
  const auto b = sharded.query(scalar_inputs(values));
  // Sharded rounds are byte-identical to serial ones, so the two sessions
  // must agree exactly.
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.estimates, b.estimates);
  EXPECT_EQ(serial.engine().state_fingerprint(), sharded.engine().state_fingerprint());
}

TEST(ReductionSession, BuffersUpdatesToDeadNodesAndReappliesOnRejoin) {
  // Regression: query() used to silently discard updates addressed to dead
  // nodes AND leave current_[i] stale, so the next query's delta shifted the
  // session's target. Now the desired value is buffered and the accumulated
  // drift is re-applied when the node rejoins.
  const auto t = net::Topology::hypercube(4);
  auto values = test::random_values(t.size(), 21);
  for (auto& v : values) v += 1.0;
  SessionOptions options;
  options.algorithm = core::Algorithm::kPushFlow;  // exact conservation on crash
  options.seed = 21;
  options.target_accuracy = 1e-10;
  options.max_rounds_per_query = 400;
  // The rejoin is scheduled far past the rounds any query below can consume
  // (the two queries measure ~84 + ~143 rounds), so the dead-node window is
  // guaranteed to span the buffered-update query.
  options.faults.node_crashes.push_back({5.0, 2});
  options.faults.node_rejoins.push_back({600.0, 2});
  ReductionSession session(t, scalar_inputs(values), options);
  ASSERT_TRUE(session.query(scalar_inputs(values)).reached_target);
  ASSERT_FALSE(session.engine().node_alive(2));  // the crash fired mid-query

  values[2] += 0.5;   // node 2 is dead: buffered, reported as dropped
  values[7] += 0.25;  // node 7 is alive: applied immediately
  const auto dropped_reply = session.query(scalar_inputs(values));
  EXPECT_EQ(dropped_reply.dropped_updates, 1u);
  EXPECT_EQ(dropped_reply.reapplied_updates, 0u);
  EXPECT_TRUE(std::isnan(dropped_reply.estimate(2)));

  // Run past the scheduled rejoin; count every re-applied update on the way.
  std::size_t reapplied = 0;
  while (session.total_rounds() < 610) reapplied += session.refresh().reapplied_updates;
  ASSERT_TRUE(session.engine().node_alive(2));
  const auto final_reply = session.refresh();
  reapplied += final_reply.reapplied_updates;
  EXPECT_EQ(reapplied, 1u);  // exactly once, despite many refreshes
  ASSERT_TRUE(final_reply.reached_target);
  double expected = 0.0;
  for (double v : values) expected += v;
  // The buffered +0.5 survived the crash: the session converges to the sum
  // of the CURRENT inputs, dead-node update included.
  EXPECT_NEAR(final_reply.estimate(2), expected, 1e-7 * expected);
}

TEST(ReductionSession, CheckpointRestoresWarmSessionAcrossRestart) {
  const auto t = net::Topology::hypercube(4);
  auto values = test::random_values(t.size(), 29);
  for (auto& v : values) v += 1.0;
  SessionOptions options;
  options.seed = 29;
  options.target_accuracy = 1e-10;
  ReductionSession live(t, scalar_inputs(values), options);
  ASSERT_TRUE(live.query(scalar_inputs(values)).reached_target);
  values[3] += 0.125;
  ASSERT_TRUE(live.query(scalar_inputs(values)).reached_target);

  const std::string blob = live.save_checkpoint();
  // "Restart": a fresh process reconstructs the session from the ORIGINAL
  // construction inputs and options, then restores the blob.
  auto original = test::random_values(t.size(), 29);
  for (auto& v : original) v += 1.0;
  ReductionSession revived(t, scalar_inputs(original), options);
  revived.restore(blob);
  EXPECT_EQ(revived.queries(), live.queries());
  EXPECT_EQ(revived.total_rounds(), live.total_rounds());
  EXPECT_EQ(revived.engine().state_fingerprint(), live.engine().state_fingerprint());

  // The revived session IS the live session: the next warm query matches
  // bitwise, round for round.
  values[5] += 0.25;
  const auto a = live.query(scalar_inputs(values));
  const auto b = revived.query(scalar_inputs(values));
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.estimates, b.estimates);

  // Defensive paths: truncation and a bare engine blob (no session prelude).
  ReductionSession other(t, scalar_inputs(original), options);
  EXPECT_THROW(other.restore(std::string_view(blob).substr(0, blob.size() / 2)),
               CheckpointError);
  EXPECT_THROW(other.restore(other.engine().save_checkpoint()), CheckpointError);
}

}  // namespace
}  // namespace pcf::sim
