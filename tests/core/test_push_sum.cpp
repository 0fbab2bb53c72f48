#include <gtest/gtest.h>

#include <array>

#include "net/topology.hpp"
#include "sim/engine_sync.hpp"
#include "test_util.hpp"

namespace pcf::core {
namespace {

using test::make_engine;
using test::total_mass;

TEST(PushSum, InitRejectsEmptyNeighborhood) {
  const std::vector<Mass> masses{Mass::scalar(1.0, 1.0), Mass::scalar(1.0, 1.0)};
  const auto isolated = net::Topology::from_edges(2, {});
  EXPECT_THROW(ArenaFleet(Algorithm::kPushSum, {}, isolated, masses), ContractViolation);
}

TEST(PushSum, SendPushesHalfTheMass) {
  const std::vector<Mass> masses{Mass::scalar(8.0, 2.0), Mass::scalar(0.0, 1.0)};
  ArenaFleet fleet(Algorithm::kPushSum, {}, net::Topology::bus(2), masses);
  Rng rng(1);
  const auto out = fleet.make_message(0, rng);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->to, 1u);
  EXPECT_DOUBLE_EQ(out->packet.a.s[0], 4.0);
  EXPECT_DOUBLE_EQ(out->packet.a.w, 1.0);
  EXPECT_DOUBLE_EQ(fleet.local_mass(0).s[0], 4.0);
}

TEST(PushSum, ReceiveAddsMass) {
  const std::vector<Mass> masses{Mass::scalar(1.0, 1.0), Mass::scalar(0.0, 1.0)};
  ArenaFleet fleet(Algorithm::kPushSum, {}, net::Topology::bus(2), masses);
  Packet p;
  p.a = Mass::scalar(3.0, 1.0);
  fleet.receive(0, 1, p);
  EXPECT_DOUBLE_EQ(fleet.local_mass(0).s[0], 4.0);
  EXPECT_DOUBLE_EQ(fleet.estimate(0), 2.0);
}

TEST(PushSum, IgnoresPacketsFromStrangers) {
  // Node 0 of a 3-bus hears from node 2 (a node that is not its neighbor) and
  // from id 3 (outside the fleet). The by-id receive must ignore both, for
  // every algorithm: no mass, flow or liveness change.
  const auto t = net::Topology::bus(3);
  const std::vector<Mass> masses{Mass::scalar(1.0, 1.0), Mass::scalar(0.0, 1.0),
                                 Mass::scalar(2.0, 1.0)};
  for (const Algorithm algorithm :
       {Algorithm::kPushSum, Algorithm::kPushFlow, Algorithm::kPushCancelFlow,
        Algorithm::kFlowUpdating, Algorithm::kCorrectionAllreduce, Algorithm::kFuMassHybrid}) {
    ArenaFleet fleet(algorithm, ReducerConfig{}, t, masses);
    const auto flows_of_node0 = [&] {
      std::array<Mass, ArenaFleet::kMaxFlowSlots> slots{};
      const std::size_t count = fleet.flows_toward(0, 1, slots);
      return std::vector<Mass>(slots.begin(), slots.begin() + static_cast<std::ptrdiff_t>(count));
    };
    const Mass mass_before = fleet.local_mass(0);
    const std::vector<Mass> flows_before = flows_of_node0();
    Packet p;
    p.a = Mass::scalar(100.0, 1.0);
    p.b = Mass::scalar(100.0, 1.0);
    p.active_slot = 1;
    p.role_count = 1;
    fleet.receive(0, 2, p);
    fleet.receive(0, static_cast<NodeId>(t.size()), p);
    EXPECT_DOUBLE_EQ(fleet.local_mass(0).s[0], 1.0) << to_string(algorithm);
    EXPECT_EQ(fleet.local_mass(0), mass_before) << to_string(algorithm);
    EXPECT_EQ(flows_of_node0(), flows_before) << to_string(algorithm);
    EXPECT_EQ(fleet.live_degree(0), 1u) << to_string(algorithm);
  }
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
  ArenaFleet fleet(Algorithm::kPushSum, {}, net::Topology::bus(2), masses);
  fleet.on_link_down(0, 1);
  Rng rng(1);
  EXPECT_FALSE(fleet.make_message(0, rng).has_value());
  EXPECT_EQ(fleet.live_degree(0), 0u);
}

TEST(PushSum, DuplicateLinkDownIsBenign) {
  // Node 0 is the hub of a 3-star: neighbors {1, 2}.
  const std::vector<Mass> masses(3, Mass::scalar(1.0, 1.0));
  ArenaFleet fleet(Algorithm::kPushSum, {}, net::Topology::star(3), masses);
  fleet.on_link_down(0, 1);
  fleet.on_link_down(0, 1);
  EXPECT_EQ(fleet.live_degree(0), 1u);
}

}  // namespace
}  // namespace pcf::core
