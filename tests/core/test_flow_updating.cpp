#include <gtest/gtest.h>

#include <vector>

#include "net/topology.hpp"
#include "sim/engine_sync.hpp"
#include "test_util.hpp"

namespace pcf::core {
namespace {

using test::make_engine;
using test::total_mass;

TEST(FlowUpdating, ConvergesToAverageOnHypercube) {
  const auto t = net::Topology::hypercube(5);
  auto engine = make_engine(t, Algorithm::kFlowUpdating, Aggregate::kAverage, 7);
  engine.run(800);
  EXPECT_LT(engine.max_error(), 1e-10);
}

TEST(FlowUpdating, ConvergesToSumViaRatioOfAverages) {
  const auto t = net::Topology::hypercube(4);
  auto engine = make_engine(t, Algorithm::kFlowUpdating, Aggregate::kSum, 3);
  engine.run(800);
  EXPECT_LT(engine.max_error(), 1e-10);
}

TEST(FlowUpdating, ConvergesOnRing) {
  const auto t = net::Topology::ring(10);
  auto engine = make_engine(t, Algorithm::kFlowUpdating, Aggregate::kAverage, 5);
  engine.run(2000);
  EXPECT_LT(engine.max_error(), 1e-10);
}

TEST(FlowUpdating, ConservedMassIsInvariant) {
  const auto t = net::Topology::ring(8);
  auto engine = make_engine(t, Algorithm::kFlowUpdating, Aggregate::kAverage, 11);
  const auto before = total_mass(engine);
  engine.run(100);
  const auto after = total_mass(engine);
  EXPECT_NEAR(after.s[0], before.s[0], 1e-10);
  EXPECT_NEAR(after.w, before.w, 1e-10);
}

TEST(FlowUpdating, SurvivesMessageLoss) {
  const auto t = net::Topology::hypercube(4);
  sim::FaultPlan faults;
  faults.message_loss_prob = 0.3;
  auto engine = make_engine(t, Algorithm::kFlowUpdating, Aggregate::kAverage, 5, faults);
  engine.run(3000);
  EXPECT_LT(engine.max_error(), 1e-9);
}

TEST(FlowUpdating, SurvivesLinkFailure) {
  const auto t = net::Topology::hypercube(4);
  sim::FaultPlan faults;
  faults.link_failures.push_back({50.0, 0, 1});
  auto engine = make_engine(t, Algorithm::kFlowUpdating, Aggregate::kAverage, 7, faults);
  engine.run(2000);
  EXPECT_LT(engine.max_error(), 1e-9);
}

std::vector<Mass> pair_masses(double a, double b) {
  return {Mass::scalar(a, 1.0), Mass::scalar(b, 1.0)};
}

TEST(FlowUpdating, RetransmissionIsIdempotent) {
  // Two copies of the receiver, so two fleets; the first fleet's sender
  // drives both.
  ArenaFleet one(Algorithm::kFlowUpdating, {}, net::Topology::bus(2), pair_masses(6.0, 0.0));
  ArenaFleet two(Algorithm::kFlowUpdating, {}, net::Topology::bus(2), pair_masses(6.0, 0.0));
  const auto first = one.make_message_to(0, 1);
  const auto second = one.make_message_to(0, 1);
  one.receive(1, 0, first->packet);
  one.receive(1, 0, second->packet);
  two.receive(1, 0, second->packet);
  EXPECT_EQ(one.local_mass(1), two.local_mass(1));
  EXPECT_DOUBLE_EQ(one.estimate(1), two.estimate(1));
}

TEST(FlowUpdating, FusedEstimateUsesNeighborReports) {
  ArenaFleet fleet(Algorithm::kFlowUpdating, {}, net::Topology::bus(2), pair_masses(6.0, 0.0));
  EXPECT_DOUBLE_EQ(fleet.estimate(0), 6.0);  // no reports yet: own mass only
  Packet p;
  p.a = Mass::zero(1);               // no flow
  p.b = Mass::scalar(2.0, 1.0);      // neighbor reports estimate 2
  fleet.receive(0, 1, p);
  EXPECT_DOUBLE_EQ(fleet.estimate(0), 4.0);  // (6 + 2) / 2
}

TEST(FlowUpdating, LinkDownDiscardsNeighborState) {
  // Node 0 is the hub of a 3-star: neighbors {1, 2}.
  const std::vector<Mass> masses{Mass::scalar(6.0, 1.0), Mass::scalar(1.0, 1.0),
                                 Mass::scalar(1.0, 1.0)};
  ArenaFleet fleet(Algorithm::kFlowUpdating, {}, net::Topology::star(3), masses);
  Packet p;
  p.a = Mass::scalar(1.0, 0.0);
  p.b = Mass::scalar(2.0, 1.0);
  fleet.receive(0, 1, p);
  fleet.on_link_down(0, 1);
  // Flow and estimate from node 1 are gone: mass back to the initial value.
  EXPECT_DOUBLE_EQ(fleet.local_mass(0).s[0], 6.0);
  EXPECT_DOUBLE_EQ(fleet.estimate(0), 6.0);
}

}  // namespace
}  // namespace pcf::core
