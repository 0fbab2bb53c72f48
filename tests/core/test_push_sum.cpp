#include <gtest/gtest.h>

#include "net/topology.hpp"
#include "sim/engine_sync.hpp"
#include "test_util.hpp"

namespace pcf::core {
namespace {

using test::make_engine;
using test::total_mass;

TEST(PushSum, InitRejectsDoubleInit) {
  const std::vector<Mass> masses{Mass::scalar(1.0, 1.0), Mass::scalar(1.0, 1.0)};
  test::TestFleet fleet(Algorithm::kPushSum, net::Topology::bus(2), masses);
  const std::vector<NodeId> nb{1};
  EXPECT_THROW(fleet[0].init(0, nb, Mass::scalar(1.0, 1.0)), ContractViolation);
}

TEST(PushSum, InitRejectsEmptyNeighborhood) {
  const std::vector<Mass> masses{Mass::scalar(1.0, 1.0), Mass::scalar(1.0, 1.0)};
  const auto isolated = net::Topology::from_edges(2, {});
  EXPECT_THROW(test::TestFleet(Algorithm::kPushSum, isolated, masses), ContractViolation);
}

TEST(PushSum, SendPushesHalfTheMass) {
  const std::vector<Mass> masses{Mass::scalar(8.0, 2.0), Mass::scalar(0.0, 1.0)};
  test::TestFleet fleet(Algorithm::kPushSum, net::Topology::bus(2), masses);
  Reducer& node = fleet[0];
  Rng rng(1);
  const auto out = node.make_message(rng);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->to, 1u);
  EXPECT_DOUBLE_EQ(out->packet.a.s[0], 4.0);
  EXPECT_DOUBLE_EQ(out->packet.a.w, 1.0);
  EXPECT_DOUBLE_EQ(node.local_mass().s[0], 4.0);
}

TEST(PushSum, ReceiveAddsMass) {
  const std::vector<Mass> masses{Mass::scalar(1.0, 1.0), Mass::scalar(0.0, 1.0)};
  test::TestFleet fleet(Algorithm::kPushSum, net::Topology::bus(2), masses);
  Reducer& node = fleet[0];
  Packet p;
  p.a = Mass::scalar(3.0, 1.0);
  node.on_receive(1, p);
  EXPECT_DOUBLE_EQ(node.local_mass().s[0], 4.0);
  EXPECT_DOUBLE_EQ(node.estimate(), 2.0);
}

TEST(PushSum, IgnoresPacketsFromStrangers) {
  const std::vector<Mass> masses{Mass::scalar(1.0, 1.0), Mass::scalar(0.0, 1.0)};
  test::TestFleet fleet(Algorithm::kPushSum, net::Topology::bus(2), masses);
  Reducer& node = fleet[0];
  Packet p;
  p.a = Mass::scalar(100.0, 1.0);
  node.on_receive(42, p);
  EXPECT_DOUBLE_EQ(node.local_mass().s[0], 1.0);
}

TEST(PushSum, ConvergesToAverageOnHypercube) {
  const auto t = net::Topology::hypercube(5);
  auto engine = make_engine(t, Algorithm::kPushSum, Aggregate::kAverage, 7);
  engine.run(300);
  EXPECT_LT(engine.max_error(), 1e-12);
}

TEST(PushSum, ConvergesToSumOnCompleteGraph) {
  const auto t = net::Topology::complete(16);
  auto engine = make_engine(t, Algorithm::kPushSum, Aggregate::kSum, 3);
  engine.run(400);
  EXPECT_LT(engine.max_error(), 1e-12);
}

TEST(PushSum, MassIsConservedWithoutFailures) {
  const auto t = net::Topology::ring(10);
  auto engine = make_engine(t, Algorithm::kPushSum, Aggregate::kAverage, 11);
  const auto before = total_mass(engine);
  engine.run(50);
  const auto after = total_mass(engine);
  EXPECT_NEAR(after.s[0], before.s[0], 1e-12 * std::abs(before.s[0]));
  EXPECT_NEAR(after.w, before.w, 1e-12 * before.w);
}

TEST(PushSum, MessageLossDestroysTheResult) {
  // The defining weakness: with lossy links push-sum converges to a WRONG
  // value (mass leaks), while flow-based algorithms still converge correctly.
  const auto t = net::Topology::hypercube(4);
  sim::FaultPlan faults;
  faults.message_loss_prob = 0.2;
  auto engine = make_engine(t, Algorithm::kPushSum, Aggregate::kAverage, 5, faults);
  engine.run(2000);
  // Estimates agree with each other (consensus)…
  const auto est = engine.estimates();
  double spread = 0.0;
  for (double e : est) spread = std::max(spread, std::abs(e - est[0]));
  EXPECT_LT(spread, 1e-6);
  // …but on the wrong value.
  EXPECT_GT(engine.max_error(), 1e-4);
}

TEST(PushSum, NoLiveNeighborMeansNoMessage) {
  const std::vector<Mass> masses{Mass::scalar(1.0, 1.0), Mass::scalar(0.0, 1.0)};
  test::TestFleet fleet(Algorithm::kPushSum, net::Topology::bus(2), masses);
  Reducer& node = fleet[0];
  node.on_link_down(1);
  Rng rng(1);
  EXPECT_FALSE(node.make_message(rng).has_value());
  EXPECT_EQ(node.live_degree(), 0u);
}

TEST(PushSum, DuplicateLinkDownIsBenign) {
  // Node 0 is the hub of a 3-star: neighbors {1, 2}.
  const std::vector<Mass> masses(3, Mass::scalar(1.0, 1.0));
  test::TestFleet fleet(Algorithm::kPushSum, net::Topology::star(3), masses);
  Reducer& node = fleet[0];
  node.on_link_down(1);
  node.on_link_down(1);
  EXPECT_EQ(node.live_degree(), 1u);
}

}  // namespace
}  // namespace pcf::core
