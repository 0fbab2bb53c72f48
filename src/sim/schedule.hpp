// Deterministic communication schedules.
//
// The paper's Fig. 2 bus example assumes "a regular, synchronous
// communication schedule" under which all weights stay exactly 1: in every
// round the nodes pair up in a perfect matching and each matched pair
// exchanges halves simultaneously. This module provides that runner — it is
// also how one would couple the gossip reducers to a deterministic
// neighborhood-exchange schedule on a real machine.
#pragma once

#include <utility>
#include <vector>

#include "core/arena.hpp"
#include "core/reducer.hpp"
#include "net/topology.hpp"

namespace pcf::sim {

using net::NodeId;

using MatchingEdge = std::pair<NodeId, NodeId>;
using Matching = std::vector<MatchingEdge>;

/// The two alternating matchings of a bus/line of n nodes:
/// {(0,1),(2,3),…} and {(1,2),(3,4),…}.
[[nodiscard]] std::vector<Matching> bus_matchings(std::size_t n);

/// The d matchings of a d-dimensional hypercube (pair along one dimension per
/// round).
[[nodiscard]] std::vector<Matching> hypercube_matchings(std::size_t dims);

/// Runs the algorithm round-robin over the given matchings: round r applies
/// matchings[r % matchings.size()]; every matched pair performs a sequential
/// two-way exchange (a→b delivered, then b→a).
class MatchingScheduleRunner {
 public:
  MatchingScheduleRunner(const net::Topology& topology, std::span<const core::Mass> initial,
                         core::Algorithm algorithm, std::vector<Matching> matchings,
                         core::ReducerConfig reducer = {});

  /// Executes `rounds` matching rounds.
  void run(std::size_t rounds);

  [[nodiscard]] std::size_t size() const noexcept { return fleet_.size(); }
  /// Every node's protocol state, by node id.
  [[nodiscard]] const core::ArenaFleet& fleet() const noexcept { return fleet_; }
  [[nodiscard]] core::ArenaFleet& fleet() noexcept { return fleet_; }
  [[nodiscard]] std::vector<double> estimates(std::size_t k = 0) const;

 private:
  core::ArenaFleet fleet_;
  std::vector<Matching> matchings_;
  std::size_t round_ = 0;
};

}  // namespace pcf::sim
