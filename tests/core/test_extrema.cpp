#include "core/extrema.hpp"

#include <gtest/gtest.h>

#include "net/topology.hpp"
#include "support/check.hpp"

namespace pcf::core {
namespace {

TEST(ExtremaGossip, InitSeedsBothExtrema) {
  ExtremaGossip node;
  const std::vector<NodeId> nb{1};
  node.init(nb, Mass::scalar(4.5, 1.0));
  EXPECT_EQ(node.current_min(), 4.5);
  EXPECT_EQ(node.current_max(), 4.5);
  EXPECT_EQ(node.estimate(0), 4.5);
  EXPECT_EQ(node.estimate(1), 4.5);
}

TEST(ExtremaGossip, RejectsVectorSample) {
  ExtremaGossip node;
  const std::vector<NodeId> nb{1};
  EXPECT_THROW(node.init(nb, Mass(Values{1.0, 2.0}, 1.0)), ContractViolation);
}

TEST(ExtremaGossip, MergeIsMonotone) {
  ExtremaGossip node;
  const std::vector<NodeId> nb{1};
  node.init(nb, Mass::scalar(5.0, 1.0));
  Packet p;
  p.a = Mass(Values{2.0, 9.0}, 1.0);
  node.on_receive(1, p);
  EXPECT_EQ(node.current_min(), 2.0);
  EXPECT_EQ(node.current_max(), 9.0);
  // A narrower report cannot shrink the range.
  p.a = Mass(Values{3.0, 4.0}, 1.0);
  node.on_receive(1, p);
  EXPECT_EQ(node.current_min(), 2.0);
  EXPECT_EQ(node.current_max(), 9.0);
}

TEST(ExtremaGossip, DuplicateDeliveryIsIdempotent) {
  ExtremaGossip node;
  const std::vector<NodeId> nb{1};
  node.init(nb, Mass::scalar(5.0, 1.0));
  Packet p;
  p.a = Mass(Values{1.0, 7.0}, 1.0);
  node.on_receive(1, p);
  const double min1 = node.current_min(), max1 = node.current_max();
  node.on_receive(1, p);
  node.on_receive(1, p);
  EXPECT_EQ(node.current_min(), min1);
  EXPECT_EQ(node.current_max(), max1);
}

TEST(ExtremaGossip, CorruptedDimensionIgnored) {
  ExtremaGossip node;
  const std::vector<NodeId> nb{1};
  node.init(nb, Mass::scalar(5.0, 1.0));
  Packet p;
  p.a = Mass::scalar(-100.0, 1.0);  // dim 1 instead of 2
  node.on_receive(1, p);
  EXPECT_EQ(node.current_min(), 5.0);
}

TEST(ExtremaGossip, UpdateDataMergesNewSample) {
  ExtremaGossip node;
  const std::vector<NodeId> nb{1};
  node.init(nb, Mass::scalar(5.0, 1.0));
  node.update_data(Mass::scalar(1.5, 0.0));
  EXPECT_EQ(node.current_min(), 1.5);
  EXPECT_EQ(node.current_max(), 5.0);
}

TEST(ExtremaGossip, MessageCarriesCurrentRange) {
  ExtremaGossip a, b;
  const std::vector<NodeId> na{1}, nb{0};
  a.init(na, Mass::scalar(3.0, 1.0));
  b.init(nb, Mass::scalar(8.0, 1.0));
  b.on_receive(0, a.make_message_to(1)->packet);
  EXPECT_EQ(b.current_min(), 3.0);
  EXPECT_EQ(b.current_max(), 8.0);
  a.on_receive(1, b.make_message_to(0)->packet);
  EXPECT_EQ(a.current_min(), 3.0);
  EXPECT_EQ(a.current_max(), 8.0);
}

}  // namespace
}  // namespace pcf::core
