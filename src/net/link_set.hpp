// A set of undirected topology edges, stored flat over the topology's CSR.
//
// The simulators and the threaded runtime keep their link state (dead, cut,
// falsely excluded) as sets of edges and test membership once per message.
// A LinkSet holds one flag per CSR directed edge — both directions of an edge
// are set together — plus a count, so a membership test is a scan of one
// sorted neighbor range with no allocation and no pointer chasing, and an
// empty set answers without touching the flags at all.
//
// Iteration visits the members as normalized (min, max) pairs in
// lexicographic order: exactly the order of std::set<std::pair<NodeId,
// NodeId>>, which the checkpoint format and SyncEngine::dead_links() rely on.
//
// Thread safety: const members only read; concurrent readers are safe as long
// as no thread mutates the set meanwhile (the engines and runtimes mutate
// link state only at phase boundaries).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <utility>
#include <vector>

#include "net/topology.hpp"

namespace pcf::net {

class LinkSet {
 public:
  /// An empty set over `topology`'s edges (copies share the topology's CSR).
  explicit LinkSet(Topology topology);

  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }

  /// Whether edge {a, b} is a member, in either endpoint order. A pair that
  /// is not a topology edge is never a member.
  [[nodiscard]] bool contains(NodeId a, NodeId b) const noexcept {
    if (count_ == 0) return false;
    const std::size_t e = edge_index(a, b);
    return e != kNoEdge && flags_[e] != 0;
  }
  /// Whether the edge between `node` and its `slot`-th neighbor (in
  /// ascending neighbor order) is a member — O(1) for callers that already
  /// hold the CSR slot.
  [[nodiscard]] bool contains_at(NodeId node, std::size_t slot) const noexcept {
    return count_ != 0 && flags_[topology_.offsets()[node] + slot] != 0;
  }

  /// Adds edge {a, b}; false if it was already a member (std::set::insert's
  /// `.second`). Throws ContractViolation if {a, b} is not a topology edge.
  bool insert(NodeId a, NodeId b);
  /// Removes edge {a, b}; returns how many members were removed, 0 or 1
  /// (std::set::erase). Throws ContractViolation if {a, b} is not a
  /// topology edge.
  std::size_t erase(NodeId a, NodeId b);
  void clear() noexcept;

  /// Forward iteration over the members as (min, max) pairs, ascending.
  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using iterator_concept = std::forward_iterator_tag;
    using value_type = std::pair<NodeId, NodeId>;
    using difference_type = std::ptrdiff_t;
    using reference = value_type;
    using pointer = void;

    const_iterator() = default;
    [[nodiscard]] value_type operator*() const {
      return {node_, set_->topology_.neighbors(node_)[edge_ - set_->topology_.offsets()[node_]]};
    }
    const_iterator& operator++() {
      ++edge_;
      --left_;
      settle();
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++*this;
      return before;
    }
    friend bool operator==(const const_iterator& x, const const_iterator& y) noexcept {
      return x.edge_ == y.edge_;
    }

   private:
    friend class LinkSet;
    const_iterator(const LinkSet* set, std::size_t edge, std::size_t left)
        : set_(set), edge_(edge), left_(left) {
      settle();
    }
    /// Moves to the next member at or after edge_ (end() when none is left).
    void settle();

    const LinkSet* set_ = nullptr;
    std::size_t edge_ = 0;
    std::size_t left_ = 0;  ///< members at or after edge_
    NodeId node_ = 0;       ///< CSR row holding edge_
  };

  [[nodiscard]] const_iterator begin() const { return {this, 0, count_}; }
  [[nodiscard]] const_iterator end() const { return {this, flags_.size(), 0}; }

 private:
  static constexpr std::size_t kNoEdge = std::numeric_limits<std::size_t>::max();

  /// Directed edge a -> b in the CSR, or kNoEdge if {a, b} is not an edge.
  [[nodiscard]] std::size_t edge_index(NodeId a, NodeId b) const noexcept;
  /// Both directed edges of {a, b}; throws ContractViolation for a non-edge.
  [[nodiscard]] std::pair<std::size_t, std::size_t> checked_edge(NodeId a, NodeId b) const;

  Topology topology_;
  std::vector<std::uint8_t> flags_;  ///< per CSR directed edge; 1 = member
  std::size_t count_ = 0;            ///< undirected members
};

}  // namespace pcf::net
