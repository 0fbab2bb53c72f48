#include <gtest/gtest.h>

#include <vector>

#include "net/topology.hpp"
#include "sim/engine_sync.hpp"
#include "test_util.hpp"

namespace pcf::core {
namespace {

using test::make_engine;
using test::total_mass;

TEST(FuMassHybrid, ConvergesToAverageOnHypercube) {
  const auto t = net::Topology::hypercube(5);
  auto engine = make_engine(t, Algorithm::kFuMassHybrid, Aggregate::kAverage, 7);
  engine.run(800);
  EXPECT_LT(engine.max_error(), 1e-10);
}

TEST(FuMassHybrid, ConvergesToSumViaRatioOfAverages) {
  const auto t = net::Topology::hypercube(4);
  auto engine = make_engine(t, Algorithm::kFuMassHybrid, Aggregate::kSum, 3);
  engine.run(800);
  EXPECT_LT(engine.max_error(), 1e-10);
}

TEST(FuMassHybrid, ConvergesOnRing) {
  const auto t = net::Topology::ring(10);
  auto engine = make_engine(t, Algorithm::kFuMassHybrid, Aggregate::kAverage, 5);
  engine.run(2000);
  EXPECT_LT(engine.max_error(), 1e-10);
}

TEST(FuMassHybrid, ConservedMassIsInvariant) {
  const auto t = net::Topology::ring(8);
  auto engine = make_engine(t, Algorithm::kFuMassHybrid, Aggregate::kAverage, 11);
  const auto before = total_mass(engine);
  engine.run(100);
  const auto after = total_mass(engine);
  EXPECT_NEAR(after.s[0], before.s[0], 1e-10);
  EXPECT_NEAR(after.w, before.w, 1e-10);
}

TEST(FuMassHybrid, SurvivesMessageLoss) {
  const auto t = net::Topology::hypercube(4);
  sim::FaultPlan faults;
  faults.message_loss_prob = 0.3;
  auto engine = make_engine(t, Algorithm::kFuMassHybrid, Aggregate::kAverage, 5, faults);
  engine.run(3000);
  EXPECT_LT(engine.max_error(), 1e-9);
}

TEST(FuMassHybrid, SurvivesLinkFailure) {
  const auto t = net::Topology::hypercube(4);
  sim::FaultPlan faults;
  faults.link_failures.push_back({50.0, 0, 1});
  auto engine = make_engine(t, Algorithm::kFuMassHybrid, Aggregate::kAverage, 7, faults);
  engine.run(2000);
  EXPECT_LT(engine.max_error(), 1e-9);
}

std::vector<Mass> pair_masses(double a, double b) {
  return {Mass::scalar(a, 1.0), Mass::scalar(b, 1.0)};
}

TEST(FuMassHybrid, PairwiseStepHalvesTheReportedGap) {
  // MD's two-node step through FU's flow bookkeeping: once a knows b's mass,
  // a single exchange equalizes both at the pairwise average.
  ArenaFleet fleet(Algorithm::kFuMassHybrid, {}, net::Topology::bus(2), pair_masses(6.0, 0.0));
  // b reports first (no halving yet: no report of a's mass held).
  const auto hello = fleet.make_message_to(1, 0);
  ASSERT_TRUE(hello.has_value());
  fleet.receive(0, 1, hello->packet);
  EXPECT_DOUBLE_EQ(fleet.local_mass(0).s[0], 6.0);
  // a now halves the gap: Δ = (6 − 0) / 2 = 3 moves through the edge flow.
  const auto step = fleet.make_message_to(0, 1);
  ASSERT_TRUE(step.has_value());
  EXPECT_DOUBLE_EQ(fleet.local_mass(0).s[0], 3.0);
  fleet.receive(1, 0, step->packet);
  EXPECT_DOUBLE_EQ(fleet.local_mass(1).s[0], 3.0);
  // No mass was created or destroyed on the way.
  EXPECT_DOUBLE_EQ(fleet.local_mass(0).s[0] + fleet.local_mass(1).s[0], 6.0);
}

TEST(FuMassHybrid, RetransmissionIsIdempotent) {
  // Two copies of the receiver, so two fleets; the first fleet's sender
  // drives both.
  ArenaFleet one(Algorithm::kFuMassHybrid, {}, net::Topology::bus(2), pair_masses(6.0, 0.0));
  ArenaFleet two(Algorithm::kFuMassHybrid, {}, net::Topology::bus(2), pair_masses(6.0, 0.0));
  const auto first = one.make_message_to(0, 1);
  const auto second = one.make_message_to(0, 1);
  ASSERT_TRUE(first.has_value() && second.has_value());
  one.receive(1, 0, first->packet);
  one.receive(1, 0, second->packet);
  two.receive(1, 0, second->packet);
  // Absolute flows: the duplicate delivery changes nothing.
  EXPECT_EQ(one.local_mass(1), two.local_mass(1));
  EXPECT_DOUBLE_EQ(one.estimate(1), two.estimate(1));
}

TEST(FuMassHybrid, LinkDownRestoresMovedMass) {
  // Node 0 is the hub of a 3-star: neighbors {1, 2}.
  const std::vector<Mass> masses{Mass::scalar(6.0, 1.0), Mass::scalar(1.0, 1.0),
                                 Mass::scalar(1.0, 1.0)};
  ArenaFleet fleet(Algorithm::kFuMassHybrid, {}, net::Topology::star(3), masses);
  Packet p;
  p.a = Mass::zero(1);
  p.b = Mass::scalar(0.0, 1.0);  // neighbor 1 reports zero mass
  fleet.receive(0, 1, p);
  const auto step = fleet.make_message_to(0, 1);
  ASSERT_TRUE(step.has_value());
  EXPECT_DOUBLE_EQ(fleet.local_mass(0).s[0], 3.0);  // half the gap moved out
  fleet.on_link_down(0, 1);
  // The excluded edge's flow is forgotten: the moved mass folds back.
  EXPECT_DOUBLE_EQ(fleet.local_mass(0).s[0], 6.0);
  EXPECT_DOUBLE_EQ(fleet.estimate(0), 6.0);
}

TEST(FuMassHybrid, StaleReportStillConservesMass) {
  // The paper's point: halving against a stale report is a worse step but a
  // SAFE one — the flow discipline conserves Σ m regardless.
  ArenaFleet fleet(Algorithm::kFuMassHybrid, {}, net::Topology::bus(2), pair_masses(8.0, 2.0));
  const auto hello = fleet.make_message_to(1, 0);
  ASSERT_TRUE(hello.has_value());
  fleet.receive(0, 1, hello->packet);
  // Two sends from a against the SAME report of b (b never answers): the
  // second halving uses stale data, yet a + b stays 10 after each delivery.
  for (int i = 0; i < 2; ++i) {
    const auto step = fleet.make_message_to(0, 1);
    ASSERT_TRUE(step.has_value());
    fleet.receive(1, 0, step->packet);
    EXPECT_NEAR(fleet.local_mass(0).s[0] + fleet.local_mass(1).s[0], 10.0, 1e-12);
  }
}

}  // namespace
}  // namespace pcf::core
