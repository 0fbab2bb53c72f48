#include "sim/statistics.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "support/binio.hpp"
#include "test_util.hpp"

namespace pcf::sim {
namespace {

struct Reference {
  double sum = 0, mean = 0, variance = 0, min = 0, max = 0;
};

Reference direct_stats(std::span<const double> values) {
  Reference r;
  r.min = *std::min_element(values.begin(), values.end());
  r.max = *std::max_element(values.begin(), values.end());
  for (double v : values) r.sum += v;
  r.mean = r.sum / static_cast<double>(values.size());
  for (double v : values) r.variance += (v - r.mean) * (v - r.mean);
  r.variance /= static_cast<double>(values.size());
  return r;
}

TEST(DistributedSummary, MatchesDirectComputationOnEveryNode) {
  const auto t = net::Topology::hypercube(4);
  const auto values = test::random_values(t.size(), 5);
  const auto ref = direct_stats(values);
  SummaryOptions options;
  options.seed = 5;
  const auto result = distributed_summary(t, values, options);
  EXPECT_TRUE(result.reached_target);
  for (const auto& s : result.per_node) {
    EXPECT_NEAR(s.count, 16.0, 1e-9);
    EXPECT_NEAR(s.sum, ref.sum, 1e-9);
    EXPECT_NEAR(s.mean, ref.mean, 1e-10);
    EXPECT_NEAR(s.variance, ref.variance, 1e-9);
    EXPECT_EQ(s.min, ref.min);  // extrema are exact, not approximate
    EXPECT_EQ(s.max, ref.max);
  }
}

TEST(DistributedSummary, WorksOnIrregularTopology) {
  Rng rng(3);
  const auto t = net::Topology::erdos_renyi(25, 0.15, rng);
  const auto values = test::random_values(t.size(), 7);
  const auto ref = direct_stats(values);
  SummaryOptions options;
  options.seed = 7;
  const auto result = distributed_summary(t, values, options);
  for (const auto& s : result.per_node) {
    EXPECT_NEAR(s.mean, ref.mean, 1e-9);
    EXPECT_EQ(s.min, ref.min);
  }
}

TEST(DistributedSummary, SurvivesMessageLoss) {
  const auto t = net::Topology::hypercube(4);
  const auto values = test::random_values(t.size(), 9);
  const auto ref = direct_stats(values);
  SummaryOptions options;
  options.seed = 9;
  options.faults.message_loss_prob = 0.2;
  options.max_rounds = 30000;
  const auto result = distributed_summary(t, values, options);
  EXPECT_TRUE(result.reached_target);
  for (const auto& s : result.per_node) {
    EXPECT_NEAR(s.mean, ref.mean, 1e-9);
    EXPECT_EQ(s.min, ref.min);
    EXPECT_EQ(s.max, ref.max);
  }
}

TEST(DistributedSummary, ConstantInputGivesZeroVariance) {
  const auto t = net::Topology::ring(8);
  const std::vector<double> values(8, 3.25);
  const auto result = distributed_summary(t, values, {});
  for (const auto& s : result.per_node) {
    EXPECT_NEAR(s.variance, 0.0, 1e-12);
    EXPECT_EQ(s.min, 3.25);
    EXPECT_EQ(s.max, 3.25);
  }
}

TEST(DistributedExtrema, ExactOnEveryTopology) {
  Rng rng(1);
  for (const auto& spec : {"bus:9", "ring:12", "hypercube:5", "star:7", "tree:10"}) {
    const auto t = net::Topology::parse(spec, rng);
    const auto values = test::random_values(t.size(), 11);
    const auto ref = direct_stats(values);
    const auto extrema = distributed_extrema(t, values, {});
    for (const auto& [mn, mx] : extrema) {
      EXPECT_EQ(mn, ref.min) << spec;
      EXPECT_EQ(mx, ref.max) << spec;
    }
  }
}

TEST(DistributedExtrema, PartialSpreadUnderLossIsPinned) {
  // Too few rounds to finish, under message loss: every node's (min, max)
  // depends on each target draw and each loss draw, in order. The pins fix
  // that draw order, so a rewrite of the gossip loop cannot shift a stream.
  struct Pin {
    const char* spec;
    std::size_t rounds;
    double loss;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {"ring:24", 3, 0.3, 0x00bf35901fcb7f66ULL},
      {"hypercube:5", 2, 0.5, 0x0dcdc955de4e745dULL},
      {"tree:20", 4, 0.0, 0xd950ff216c89c36bULL},
  };
  for (const Pin& pin : pins) {
    Rng rng(3);
    const auto t = net::Topology::parse(pin.spec, rng);
    const auto values = test::random_values(t.size(), 19);
    const auto ref = direct_stats(values);
    SummaryOptions options;
    options.seed = 23;
    options.extrema_rounds = pin.rounds;
    options.faults.message_loss_prob = pin.loss;
    Fnv1a h;
    bool partial = false;
    for (const auto& [mn, mx] : distributed_extrema(t, values, options)) {
      h.add_bits(mn).add_bits(mx);
      partial = partial || mn != ref.min || mx != ref.max;
    }
    EXPECT_TRUE(partial) << pin.spec << ": the spread finished, so the pin shows no draw order";
    EXPECT_EQ(h.value(), pin.hash) << pin.spec;
  }
}

TEST(NetworkSize, EveryNodeEstimatesN) {
  for (const auto spec : {"hypercube:5", "ring:12", "torus3d:2"}) {
    Rng rng(1);
    const auto t = net::Topology::parse(spec, rng);
    SummaryOptions options;
    options.seed = 13;
    options.target_accuracy = 1e-11;
    const auto sizes = estimate_network_size(t, options);
    for (double n_est : sizes) {
      EXPECT_NEAR(n_est, static_cast<double>(t.size()), 1e-6 * static_cast<double>(t.size()))
          << spec;
    }
  }
}

TEST(NetworkSize, SurvivesMessageLoss) {
  const auto t = net::Topology::hypercube(4);
  SummaryOptions options;
  options.faults.message_loss_prob = 0.25;
  options.target_accuracy = 1e-10;
  options.max_rounds = 30000;
  const auto sizes = estimate_network_size(t, options);
  for (double n_est : sizes) EXPECT_NEAR(n_est, 16.0, 1e-5);
}

TEST(DistributedExtrema, RejectsWrongValueCount) {
  const auto t = net::Topology::ring(4);
  const std::vector<double> values(3, 1.0);
  EXPECT_THROW(distributed_extrema(t, values, {}), ContractViolation);
}

TEST(DistributedExtrema, RejectsDisconnectedTopology) {
  // Two components: gossip could only ever report per-component extrema.
  const std::vector<std::pair<net::NodeId, net::NodeId>> edges{{0, 1}, {2, 3}};
  const auto t = net::Topology::from_edges(4, edges);
  const std::vector<double> values{1.0, 2.0, 3.0, 4.0};
  EXPECT_THROW(distributed_extrema(t, values, {}), ContractViolation);
}

}  // namespace
}  // namespace pcf::sim
