#include "sim/schedule.hpp"

#include <gtest/gtest.h>

#include <set>

#include "sim/reduce.hpp"
#include "support/check.hpp"
#include "test_util.hpp"

namespace pcf::sim {
namespace {

using core::Aggregate;
using core::Algorithm;

TEST(BusMatchings, CoverAllEdgesExactlyOnce) {
  const auto ms = bus_matchings(7);
  ASSERT_EQ(ms.size(), 2u);
  std::size_t total = 0;
  for (const auto& m : ms) total += m.size();
  EXPECT_EQ(total, 6u);  // all bus edges
  // matchings are vertex-disjoint
  for (const auto& m : ms) {
    std::set<NodeId> seen;
    for (const auto& [a, b] : m) {
      EXPECT_TRUE(seen.insert(a).second);
      EXPECT_TRUE(seen.insert(b).second);
    }
  }
}

TEST(HypercubeMatchings, OneMatchingPerDimension) {
  const auto ms = hypercube_matchings(3);
  ASSERT_EQ(ms.size(), 3u);
  for (const auto& m : ms) EXPECT_EQ(m.size(), 4u);  // 8 nodes / 2
}

TEST(MatchingRunner, RejectsNonEdgeMatching) {
  const auto t = net::Topology::bus(4);
  const std::vector<core::Mass> masses(4, core::Mass::scalar(1.0, 1.0));
  std::vector<Matching> bad{{{0, 2}}};
  EXPECT_THROW(
      MatchingScheduleRunner(t, masses, Algorithm::kPushFlow, bad),
      ContractViolation);
}

TEST(MatchingRunner, PushFlowConvergesOnBus) {
  const std::size_t n = 8;
  const auto t = net::Topology::bus(n);
  const auto masses = test::bus_case_study_masses(n);
  MatchingScheduleRunner runner(t, masses, Algorithm::kPushFlow, bus_matchings(n));
  runner.run(2000);
  for (double e : runner.estimates()) EXPECT_NEAR(e, 2.0, 1e-10);
}

TEST(MatchingRunner, PcfConvergesOnHypercubeMatchings) {
  const auto t = net::Topology::hypercube(4);
  const auto values = test::random_values(t.size(), 9);
  const auto masses = masses_from_values(values, Aggregate::kAverage);
  MatchingScheduleRunner runner(t, masses, Algorithm::kPushCancelFlow,
                                hypercube_matchings(4));
  runner.run(400);
  const Oracle oracle(masses);
  for (double e : runner.estimates()) EXPECT_LT(oracle.error_of(e), 1e-12);
}

TEST(MatchingSchedule, CorrectionAllreduceBuildsItsOwnTree) {
  // A default ReducerConfig carries no tree schedule; the fleet resolves one
  // from the topology and tree_kind.
  const std::size_t n = 8;
  const auto t = net::Topology::bus(n);
  const auto masses = test::bus_case_study_masses(n);
  MatchingScheduleRunner runner(t, masses, Algorithm::kCorrectionAllreduce, bus_matchings(n));
  runner.run(200);
  for (double e : runner.estimates()) EXPECT_NEAR(e, 2.0, 1e-10);
}

TEST(MatchingRunner, DeterministicNoRngInvolved) {
  const std::size_t n = 6;
  const auto t = net::Topology::bus(n);
  const auto masses = test::bus_case_study_masses(n);
  MatchingScheduleRunner a(t, masses, Algorithm::kPushCancelFlow, bus_matchings(n));
  MatchingScheduleRunner b(t, masses, Algorithm::kPushCancelFlow, bus_matchings(n));
  a.run(100);
  b.run(100);
  EXPECT_EQ(a.estimates(), b.estimates());
}

}  // namespace
}  // namespace pcf::sim
