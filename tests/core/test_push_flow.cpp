#include <gtest/gtest.h>

#include "net/topology.hpp"
#include "sim/engine_sync.hpp"
#include "sim/schedule.hpp"
#include "test_util.hpp"

namespace pcf::core {
namespace {

using test::bus_case_study_masses;
using test::flow_toward;
using test::make_engine;
using test::total_mass;

std::vector<Mass> pair_masses(double a, double b) {
  return {Mass::scalar(a, 1.0), Mass::scalar(b, 1.0)};
}

TEST(PushFlow, VirtualSendFoldsHalfIntoFlow) {
  const std::vector<Mass> masses{Mass::scalar(8.0, 2.0), Mass::scalar(0.0, 1.0)};
  ArenaFleet fleet(Algorithm::kPushFlow, {}, net::Topology::bus(2), masses);
  Rng rng(1);
  const auto out = fleet.make_message(0, rng);
  ASSERT_TRUE(out.has_value());
  // Flow toward 1 now carries half; the local mass dropped to half.
  EXPECT_DOUBLE_EQ(flow_toward(fleet, 0, 1).s[0], 4.0);
  EXPECT_DOUBLE_EQ(fleet.local_mass(0).s[0], 4.0);
  // Physical packet is the whole flow variable, not the delta.
  EXPECT_DOUBLE_EQ(out->packet.a.s[0], 4.0);
}

TEST(PushFlow, ReceiverMirrorsWithExactNegation) {
  ArenaFleet fleet(Algorithm::kPushFlow, {}, net::Topology::bus(2), pair_masses(6.0, 0.0));
  Rng rng(1);
  const auto out = fleet.make_message(0, rng);
  ASSERT_TRUE(out.has_value());
  fleet.receive(1, 0, out->packet);
  EXPECT_TRUE(flow_toward(fleet, 1, 0).is_negation_of(flow_toward(fleet, 0, 1)));
  // Mass moved: a has 3, b has 3 (their mass sum is conserved: 6).
  EXPECT_DOUBLE_EQ(fleet.local_mass(0).s[0], 3.0);
  EXPECT_DOUBLE_EQ(fleet.local_mass(1).s[0], 3.0);
}

TEST(PushFlow, RetransmissionIsIdempotent) {
  // Losing a packet and receiving the next one gives the same state as
  // receiving both — the flow is absolute, not a delta. Two copies of the
  // receiver, so two fleets; the sender of the first one drives both.
  ArenaFleet one(Algorithm::kPushFlow, {}, net::Topology::bus(2), pair_masses(6.0, 0.0));
  ArenaFleet two(Algorithm::kPushFlow, {}, net::Topology::bus(2), pair_masses(6.0, 0.0));
  Rng rng(1);
  const auto first = one.make_message(0, rng);
  const auto second = one.make_message(0, rng);
  // b1 receives both; b2 only the second.
  one.receive(1, 0, first->packet);
  one.receive(1, 0, second->packet);
  two.receive(1, 0, second->packet);
  EXPECT_EQ(one.local_mass(1), two.local_mass(1));
}

TEST(PushFlow, BitFlipInFlowHealsAtNextDelivery) {
  ArenaFleet fleet(Algorithm::kPushFlow, {}, net::Topology::bus(2), pair_masses(6.0, 2.0));
  Rng rng(1);
  fleet.receive(1, 0, fleet.make_message(0, rng)->packet);
  // Corrupt b's mirrored flow (as a bit flip in memory would).
  Packet corrupt;
  corrupt.a = Mass::scalar(1234.5, -7.0);
  fleet.receive(1, 0, corrupt);
  EXPECT_NE(fleet.local_mass(1).s[0], 5.0);
  // The next regular delivery from a overwrites the corruption.
  fleet.receive(1, 0, fleet.make_message(0, rng)->packet);
  EXPECT_TRUE(flow_toward(fleet, 1, 0).is_negation_of(flow_toward(fleet, 0, 1)));
}

TEST(PushFlow, ConvergesOnHypercubeAvgAndSum) {
  for (const auto agg : {Aggregate::kAverage, Aggregate::kSum}) {
    const auto t = net::Topology::hypercube(5);
    auto engine = make_engine(t, Algorithm::kPushFlow, agg, 7);
    engine.run(400);
    EXPECT_LT(engine.max_error(), 1e-10) << to_string(agg);
  }
}

TEST(PushFlow, SurvivesHeavyMessageLoss) {
  const auto t = net::Topology::hypercube(4);
  sim::FaultPlan faults;
  faults.message_loss_prob = 0.3;
  auto engine = make_engine(t, Algorithm::kPushFlow, Aggregate::kAverage, 5, faults);
  engine.run(2000);
  EXPECT_LT(engine.max_error(), 1e-9);
}

TEST(PushFlow, SurvivesBitFlips) {
  const auto t = net::Topology::hypercube(4);
  sim::FaultPlan faults;
  faults.bit_flip_prob = 0.01;
  auto engine = make_engine(t, Algorithm::kPushFlow, Aggregate::kAverage, 5, faults);
  // Flips stop perturbing once messages stop being flipped; run a clean tail
  // by disabling flips via convergence: here we simply check the run does not
  // diverge and conservation is restored at the end of lossless rounds.
  engine.run(1500);
  EXPECT_LT(engine.median_error(), 1e-2);
}

TEST(PushFlow, BusCutInvariantMatchesFig2ClosedForm) {
  // Paper Fig. 2 / Section II-B: with v_0 = n+1 and v_i = 1 on a bus, PF's
  // converged flows transport the prefix surplus across every edge. In the
  // paper's weightless idealization f_{i,i+1} = n-1-i (0-based) exactly; in
  // the weighted algorithm the execution-independent statement is the cut
  // invariant  f_val(i,i+1) − a·f_w(i,i+1) = n-1-i  (a = 2 is the average),
  // which follows from antisymmetry plus per-node consensus s_i = a·w_i.
  // Either way, flow magnitudes grow linearly with n while the aggregate
  // stays 2 — the root cause of PF's cancellation errors.
  const std::size_t n = 8;
  const auto t = net::Topology::bus(n);
  const auto masses = bus_case_study_masses(n);
  sim::SyncEngineConfig cfg;
  cfg.algorithm = Algorithm::kPushFlow;
  cfg.seed = 2;
  sim::SyncEngine engine(t, masses, cfg);
  engine.run_until_error(1e-13, 20000);
  ASSERT_LT(engine.max_error(), 1e-13);
  for (NodeId i = 0; i + 1 < n; ++i) {
    const Mass f = flow_toward(engine.fleet(), i, i + 1);
    const double expected = static_cast<double>(n - 1 - i);
    EXPECT_NEAR(f.s[0] - 2.0 * f.w, expected, 1e-6) << "edge " << i;
  }
}

TEST(PushFlow, FlowsGrowLinearlyWithBusSize) {
  // The mechanism behind the paper's Fig. 3: PF flow magnitudes scale with n
  // even though the aggregate stays 2.
  double prev = 0.0;
  for (const std::size_t n : {8u, 16u, 32u}) {
    const auto t = net::Topology::bus(n);
    const auto masses = bus_case_study_masses(n);
    sim::SyncEngineConfig cfg;
    cfg.algorithm = Algorithm::kPushFlow;
    cfg.seed = 2;
    sim::SyncEngine engine(t, masses, cfg);
    engine.run_until_error(1e-12, static_cast<std::size_t>(n) * n * 8);
    const double flow = engine.max_abs_flow();
    EXPECT_GT(flow, 1.5 * prev);
    prev = flow;
  }
  EXPECT_GT(prev, 20.0);
}

TEST(PushFlow, LinkFailureCausesConvergenceFallback) {
  // Section II-C: excluding a failed link throws PF back to an early stage.
  const auto t = net::Topology::hypercube(6);
  sim::FaultPlan faults;
  const auto edges = t.edges();
  faults.link_failures.push_back({75.0, edges[17].first, edges[17].second});
  auto engine = make_engine(t, Algorithm::kPushFlow, Aggregate::kAverage, 4, faults);
  engine.run(74);
  const double before = engine.max_error();
  EXPECT_LT(before, 1e-4);
  engine.run(3);  // failure fires
  const double after = engine.max_error();
  EXPECT_GT(after, 1e3 * before);  // fell back by orders of magnitude
}

TEST(PushFlow, ExcludedLinkStillConverges) {
  const auto t = net::Topology::hypercube(4);
  sim::FaultPlan faults;
  faults.link_failures.push_back({10.0, 0, 1});
  auto engine = make_engine(t, Algorithm::kPushFlow, Aggregate::kAverage, 4, faults);
  engine.run(1200);
  EXPECT_LT(engine.max_error(), 1e-9);
}

TEST(PushFlow, MassConservationHoldsAfterQuiescence) {
  const auto t = net::Topology::ring(8);
  auto engine = make_engine(t, Algorithm::kPushFlow, Aggregate::kAverage, 9);
  engine.run(100);
  // In the sync engine every sent packet is delivered in the same round, so
  // pairwise conservation holds at round boundaries and the total mass is
  // exactly the initial mass (up to FP rounding of the flow sums).
  const auto total = total_mass(engine);
  double expected = 0.0;
  for (double v : test::random_values(8, 9 ^ 0xabcdef)) expected += v;
  EXPECT_NEAR(total.s[0], expected, 1e-9);
  EXPECT_NEAR(total.w, 8.0, 1e-12);
}

TEST(PushFlow, CachedFlowSumVariantAlsoConverges) {
  ReducerConfig rc;
  rc.pf_cached_flow_sum = true;
  const auto t = net::Topology::hypercube(4);
  auto engine = make_engine(t, Algorithm::kPushFlow, Aggregate::kAverage, 7, {}, rc);
  engine.run(400);
  EXPECT_LT(engine.max_error(), 1e-9);
}

}  // namespace
}  // namespace pcf::core
