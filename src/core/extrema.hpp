// Extrema gossip — distributed min/max.
//
// Sums and averages need mass conservation; minima and maxima do not: the
// aggregate is *idempotent and monotone*, so a node simply keeps the
// smallest/largest values it has ever seen and gossips them. Duplication,
// reordering and loss are all harmless (re-learning an extremum is a no-op),
// which makes extrema gossip trivially fault tolerant — with two inherent
// caveats the flow algorithms do not share:
//
//  * a corrupted packet can inject a spurious extremum that can never be
//    retracted (monotone state cannot heal);
//  * a crashed node's value cannot be un-learned — the reported minimum may
//    belong to a node that no longer exists.
//
// Both are documented properties of min/max gossip in general, not of this
// implementation. One ExtremaGossip is one node: its state is the pair
// (min, max), reported as a dim-2 pseudo-mass with weight 1, estimate(0) =
// min, estimate(1) = max. It conserves nothing, so it is driven by the
// statistics layer (sim/statistics.hpp) rather than by oracle-checked
// reductions.
#pragma once

#include <optional>
#include <span>

#include "core/neighbor_set.hpp"
#include "core/reducer.hpp"

namespace pcf::core {

class ExtremaGossip {
 public:
  /// A packet addressed to a neighbor.
  struct Message {
    NodeId to = 0;
    Packet packet;
  };

  /// Binds the neighborhood; `initial` must be scalar: the node's value
  /// seeds both extrema. Must be called exactly once, before anything else.
  void init(std::span<const NodeId> neighbors, Mass initial);
  /// Sends the current range to a uniformly drawn live neighbor (one
  /// rng.below draw), or nullopt when none is left.
  [[nodiscard]] std::optional<Message> make_message(Rng& rng);
  /// Sends the current range to `target`, or nullopt if it is not live.
  [[nodiscard]] std::optional<Message> make_message_to(NodeId target);
  /// Monotone merge of a neighbor's range; packets from strangers and
  /// packets of the wrong dimension are ignored.
  void on_receive(NodeId from, const Packet& packet);
  /// (min, max) as a dim-2 pseudo-mass with weight 1.
  [[nodiscard]] Mass local_mass() const;
  [[nodiscard]] double estimate(std::size_t k) const { return local_mass().estimate(k); }
  /// A new sample merges into the extrema (it can widen them, never shrink).
  void update_data(const Mass& delta);

  [[nodiscard]] double current_min() const noexcept { return min_; }
  [[nodiscard]] double current_max() const noexcept { return max_; }

 private:
  NeighborSet neighbors_;
  double min_ = 0.0;
  double max_ = 0.0;
  bool initialized_ = false;
};

}  // namespace pcf::core
