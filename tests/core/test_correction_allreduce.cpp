#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/topology.hpp"
#include "net/tree_schedule.hpp"
#include "sim/engine_sync.hpp"
#include "test_util.hpp"

namespace pcf::core {
namespace {

using test::make_engine;

ReducerConfig config_for(const net::Topology& t,
                         net::TreeKind kind = net::TreeKind::kAuto) {
  ReducerConfig c;
  c.tree = std::make_shared<const net::TreeSchedule>(net::build_tree_schedule(t, kind));
  return c;
}

core::ReducerConfig with_tree_kind(net::TreeKind kind) {
  ReducerConfig c;
  c.tree_kind = kind;
  return c;
}

TEST(CorrectionAllreduce, ConvergesOnBusChain) {
  const auto t = net::Topology::bus(8);
  auto engine = make_engine(t, Algorithm::kCorrectionAllreduce, Aggregate::kAverage, 7);
  engine.run(200);
  EXPECT_LT(engine.max_error(), 1e-12);
}

TEST(CorrectionAllreduce, ConvergesOnTorusBfs) {
  const auto t = net::Topology::grid2d(4, 4, /*wrap=*/true);
  auto engine = make_engine(t, Algorithm::kCorrectionAllreduce, Aggregate::kAverage, 3);
  engine.run(400);
  EXPECT_LT(engine.max_error(), 1e-12);
}

TEST(CorrectionAllreduce, ConvergesToSum) {
  const auto t = net::Topology::hypercube(4);
  auto engine = make_engine(t, Algorithm::kCorrectionAllreduce, Aggregate::kSum, 5);
  engine.run(400);
  EXPECT_LT(engine.max_error(), 1e-12);
}

TEST(CorrectionAllreduce, ExplicitTreeKindIsHonored) {
  const auto t = net::Topology::ring(10);  // carries both chain and BFS trees
  auto engine = make_engine(t, Algorithm::kCorrectionAllreduce, Aggregate::kAverage, 9, {},
                            with_tree_kind(net::TreeKind::kBfs));
  engine.run(200);
  EXPECT_LT(engine.max_error(), 1e-12);
}

TEST(CorrectionAllreduce, SurvivesMessageLoss) {
  // The correction property: absolute idempotent reports, so loss only
  // delays convergence until the next periodic resend.
  const auto t = net::Topology::hypercube(4);
  sim::FaultPlan faults;
  faults.message_loss_prob = 0.3;
  auto engine = make_engine(t, Algorithm::kCorrectionAllreduce, Aggregate::kAverage, 5, faults);
  engine.run(1500);
  EXPECT_LT(engine.max_error(), 1e-12);
}

TEST(CorrectionAllreduce, SurvivesDuplicationAndReordering) {
  const auto t = net::Topology::grid2d(3, 4);
  sim::FaultPlan faults;
  faults.duplicate_prob = 0.2;
  faults.reorder_prob = 0.2;
  auto engine = make_engine(t, Algorithm::kCorrectionAllreduce, Aggregate::kAverage, 8, faults);
  engine.run(1000);
  EXPECT_LT(engine.max_error(), 1e-12);
}

/// Inputs of the 3-node bus tests: root 0 holds 6, mid 1 holds 3, leaf 2
/// holds 9 (unit weights; the global average is 18 / 3).
std::vector<Mass> bus3_masses() {
  return {Mass::scalar(6.0, 1.0), Mass::scalar(3.0, 1.0), Mass::scalar(9.0, 1.0)};
}

TEST(CorrectionAllreduce, MassNeverMoves) {
  const auto t = net::Topology::bus(3);
  ArenaFleet fleet(Algorithm::kCorrectionAllreduce, config_for(t), t, bus3_masses());
  const auto msg = fleet.make_message_to(1, 0);
  ASSERT_TRUE(msg.has_value());
  fleet.receive(0, 1, msg->packet);
  EXPECT_EQ(fleet.local_mass(0), Mass::scalar(6.0, 1.0));
  EXPECT_EQ(fleet.local_mass(1), Mass::scalar(3.0, 1.0));
  // Crashed senders therefore strand no in-flight mass.
  EXPECT_EQ(fleet.unreceived_mass(0, 1, msg->packet), Mass::zero(1));
}

TEST(CorrectionAllreduce, ChildClaimsDriveSubtreeSums) {
  // Explicit chain 0 <- 1 <- 2 (auto would pick the star rooted at the hub 1).
  const auto t = net::Topology::bus(3);
  ArenaFleet fleet(Algorithm::kCorrectionAllreduce, config_for(t, net::TreeKind::kChain), t,
                   bus3_masses());

  // Leaf reports its subtree (itself) upward; mid folds it in.
  const auto up1 = fleet.make_message_to(2, 1);
  ASSERT_TRUE(up1.has_value());
  EXPECT_EQ(up1->packet.role_count, 2u);  // claims parent id 1
  fleet.receive(1, 2, up1->packet);
  const auto up2 = fleet.make_message_to(1, 0);
  ASSERT_TRUE(up2.has_value());
  EXPECT_EQ(up2->packet.a, Mass::scalar(12.0, 2.0));  // 3+9, both weights

  // Root folds mid's report: its subtree sum IS the global aggregate.
  fleet.receive(0, 1, up2->packet);
  EXPECT_DOUBLE_EQ(fleet.estimate(0), 18.0 / 3.0);

  // The root's packet publishes the global view (active_slot == 2)...
  const auto down = fleet.make_message_to(0, 1);
  ASSERT_TRUE(down.has_value());
  EXPECT_EQ(down->packet.active_slot, 2);
  EXPECT_EQ(down->packet.role_count, 0u);  // the root claims no parent
  // ...which the child adopts as its estimate.
  fleet.receive(1, 0, down->packet);
  EXPECT_DOUBLE_EQ(fleet.estimate(1), 18.0 / 3.0);
}

TEST(CorrectionAllreduce, RetransmissionIsIdempotent) {
  // Two copies of the mid node, so two fleets; the first fleet's leaf drives
  // both.
  const auto t = net::Topology::bus(3);
  ArenaFleet one(Algorithm::kCorrectionAllreduce, config_for(t), t, bus3_masses());
  ArenaFleet two(Algorithm::kCorrectionAllreduce, config_for(t), t, bus3_masses());
  const auto report = one.make_message_to(2, 1);
  ASSERT_TRUE(report.has_value());
  one.receive(1, 2, report->packet);
  one.receive(1, 2, report->packet);  // duplicate
  two.receive(1, 2, report->packet);
  const auto m1 = one.make_message_to(1, 0);
  const auto m2 = two.make_message_to(1, 0);
  ASSERT_TRUE(m1.has_value() && m2.has_value());
  EXPECT_EQ(m1->packet.a, m2->packet.a);  // absolute reports: duplicates are no-ops
}

TEST(CorrectionAllreduce, ReattachesToNextUpwardNeighborOnParentLoss) {
  // ring(6) resolves to the chain schedule (depth[i] == i). Node 5 has the
  // upward neighbors 0 (depth 0) and 4 (depth 4); the (depth, id)-minimal
  // rule picks 0 first, then 4 after the 5-0 link is excluded.
  const auto t = net::Topology::ring(6);
  const auto cfg = config_for(t);
  ASSERT_EQ(cfg.tree->kind, net::TreeKind::kChain);
  const std::vector<Mass> masses(6, Mass::scalar(1.0, 1.0));
  ArenaFleet fleet(Algorithm::kCorrectionAllreduce, cfg, t, masses);
  const auto parent = [&] { return fleet.correction_parent(5); };
  ASSERT_TRUE(parent().has_value());
  EXPECT_EQ(*parent(), 0u);

  fleet.on_link_down(5, 0);
  ASSERT_TRUE(parent().has_value());
  EXPECT_EQ(*parent(), 4u);  // correction round: re-attach upward

  // With no upward neighbor left the node becomes a fragment root and
  // honestly reports its fragment's aggregate — here just itself.
  fleet.on_link_down(5, 4);
  EXPECT_FALSE(parent().has_value());
  EXPECT_DOUBLE_EQ(fleet.estimate(5), 1.0);

  // Healing restores the static attachment.
  fleet.on_link_up(5, 0);
  ASSERT_TRUE(parent().has_value());
  EXPECT_EQ(*parent(), 0u);
}

TEST(CorrectionAllreduce, LinkDownDiscardsChildReportAndGlobalView) {
  const auto t = net::Topology::bus(3);
  ArenaFleet fleet(Algorithm::kCorrectionAllreduce, config_for(t, net::TreeKind::kChain), t,
                   bus3_masses());
  const auto report = fleet.make_message_to(2, 1);
  ASSERT_TRUE(report.has_value());
  fleet.receive(1, 2, report->packet);
  {
    const auto up = fleet.make_message_to(1, 0);
    ASSERT_TRUE(up.has_value());
    EXPECT_EQ(up->packet.a, Mass::scalar(12.0, 2.0));
  }
  fleet.on_link_down(1, 2);
  {
    const auto up = fleet.make_message_to(1, 0);
    ASSERT_TRUE(up.has_value());
    EXPECT_EQ(up->packet.a, Mass::scalar(3.0, 1.0));  // stale report dropped
  }
  // Losing the parent also invalidates the inherited global view: the node
  // falls back to its own subtree sum until a new parent publishes one.
  Packet global;
  global.a = Mass::scalar(3.0, 1.0);
  global.b = Mass::scalar(18.0, 3.0);
  global.active_slot = 2;
  global.role_count = 0;
  fleet.receive(1, 0, global);
  EXPECT_DOUBLE_EQ(fleet.estimate(1), 6.0);
  fleet.on_link_down(1, 0);
  EXPECT_DOUBLE_EQ(fleet.estimate(1), 3.0);
}

TEST(CorrectionAllreduce, SurvivesLeafCrashInEngine) {
  const auto t = net::Topology::grid2d(4, 4);
  sim::FaultPlan faults;
  faults.node_crashes.push_back({40.0, 15});  // the deepest BFS leaf
  auto engine = make_engine(t, Algorithm::kCorrectionAllreduce, Aggregate::kAverage, 11, faults);
  engine.run(600);
  // The leaf's parent drops its report; the intact remainder of the tree
  // reconverges on the survivors' aggregate (the oracle retargets on crash).
  EXPECT_LT(engine.max_error(), 1e-12);
}

TEST(CorrectionAllreduce, ReattachesAfterParentLinkFailureInEngine) {
  // In the 4x4 grid's BFS tree, node 6 attaches to node 2 but also borders
  // node 5 at the same depth as 2 — losing the 2-6 link triggers the
  // correction round (re-attach to 5) and the tree stays global.
  const auto t = net::Topology::grid2d(4, 4);
  sim::FaultPlan faults;
  faults.link_failures.push_back({30.0, 2, 6});
  auto engine = make_engine(t, Algorithm::kCorrectionAllreduce, Aggregate::kAverage, 13, faults);
  engine.run(600);
  EXPECT_LT(engine.max_error(), 1e-12);
}

}  // namespace
}  // namespace pcf::core
