#include "net/link_set.hpp"

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace pcf::net {
namespace {

using Edge = std::pair<NodeId, NodeId>;

Topology regular_200_6() {
  Rng rng(7);
  return Topology::parse("regular:200:6", rng);
}

Edge normalized(Edge e) { return e.first < e.second ? e : Edge{e.second, e.first}; }

// The checkpoint format and SyncEngine::dead_links() depend on LinkSet
// iterating exactly like the std::set<std::pair> it replaced.
TEST(LinkSet, IteratesInStdSetOrderAfterRandomInsertsAndErases) {
  const Topology t = regular_200_6();
  const std::vector<Edge> edges = t.edges();
  LinkSet links(t);
  std::set<Edge> reference;
  Rng rng(11);
  for (int op = 0; op < 4000; ++op) {
    Edge e = edges[rng.below(edges.size())];
    if (rng.chance(0.5)) std::swap(e.first, e.second);  // either endpoint order
    if (rng.chance(0.6)) {
      EXPECT_EQ(links.insert(e.first, e.second), reference.insert(normalized(e)).second);
    } else {
      EXPECT_EQ(links.erase(e.first, e.second), reference.erase(normalized(e)));
    }
    ASSERT_EQ(links.size(), reference.size());
  }
  ASSERT_FALSE(reference.empty());
  const std::vector<Edge> iterated(links.begin(), links.end());
  EXPECT_EQ(iterated, std::vector<Edge>(reference.begin(), reference.end()));
  for (const auto& [a, b] : edges) {
    EXPECT_EQ(links.contains(a, b), reference.count({a, b}) != 0) << a << "-" << b;
  }
}

TEST(LinkSet, ContainsIsSymmetricAndMatchesTheSlotForm) {
  const Topology t = regular_200_6();
  LinkSet links(t);
  const auto [a, b] = t.edges()[17];
  EXPECT_TRUE(links.empty());
  EXPECT_FALSE(links.contains(a, b));
  links.insert(b, a);
  EXPECT_TRUE(links.contains(a, b));
  EXPECT_TRUE(links.contains(b, a));
  for (const auto& [node, peer] : {Edge{a, b}, Edge{b, a}}) {
    const auto nbrs = t.neighbors(node);
    for (std::size_t slot = 0; slot < nbrs.size(); ++slot) {
      EXPECT_EQ(links.contains_at(node, slot), nbrs[slot] == peer) << node << " slot " << slot;
    }
  }
}

TEST(LinkSet, RepeatedInsertAndEraseReturnLikeStdSet) {
  const Topology t = Topology::ring(6);
  LinkSet links(t);
  EXPECT_TRUE(links.insert(2, 3));
  EXPECT_FALSE(links.insert(2, 3));
  EXPECT_FALSE(links.insert(3, 2));
  EXPECT_EQ(links.size(), 1u);
  EXPECT_EQ(links.erase(3, 2), 1u);
  EXPECT_EQ(links.erase(2, 3), 0u);
  EXPECT_TRUE(links.empty());
  EXPECT_EQ(links.begin(), links.end());
  links.insert(0, 5);
  links.insert(0, 1);
  links.clear();
  EXPECT_TRUE(links.empty());
  EXPECT_FALSE(links.contains(0, 5));
  EXPECT_EQ(links.begin(), links.end());
}

TEST(LinkSet, NonEdgeThrowsContractViolation) {
  const Topology t = Topology::ring(6);
  LinkSet links(t);
  EXPECT_THROW(links.insert(0, 3), ContractViolation);
  EXPECT_THROW(links.erase(0, 3), ContractViolation);
  EXPECT_THROW(links.insert(0, 0), ContractViolation);
  EXPECT_THROW(links.insert(0, 6), ContractViolation);  // out of range
  links.insert(0, 1);
  EXPECT_FALSE(links.contains(0, 3));  // a non-edge is never a member
  EXPECT_EQ(links.size(), 1u);
}

// Copies are independent sets over the same (shared) topology.
TEST(LinkSet, CopiesAreIndependent) {
  const Topology t = Topology::ring(5);
  LinkSet links(t);
  links.insert(1, 2);
  LinkSet copy = links;
  copy.insert(3, 4);
  EXPECT_EQ(links.size(), 1u);
  EXPECT_EQ(copy.size(), 2u);
  EXPECT_FALSE(links.contains(3, 4));
}

}  // namespace
}  // namespace pcf::net
