#include "sim/statistics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/check.hpp"

namespace pcf::sim {

SummaryResult distributed_summary(const net::Topology& topology, std::span<const double> values,
                                  const SummaryOptions& options) {
  PCF_CHECK_MSG(values.size() == topology.size(), "one value per node required");

  // One vector reduction: per-node contribution [x, x², 1], SUM semantics.
  std::vector<core::Values> contributions(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    contributions[i] = core::Values{values[i], values[i] * values[i], 1.0};
  }
  ReduceOptions reduce_options;
  reduce_options.algorithm = options.algorithm;
  reduce_options.aggregate = core::Aggregate::kSum;
  reduce_options.seed = options.seed;
  reduce_options.target_accuracy = options.target_accuracy;
  reduce_options.max_rounds = options.max_rounds;
  reduce_options.faults = options.faults;
  const auto reduced = reduce_vectors(topology, contributions, reduce_options);

  const auto extrema = distributed_extrema(topology, values, options);

  SummaryResult result;
  result.reduction_rounds = reduced.rounds;
  result.reached_target = reduced.reached_target;
  result.per_node.resize(topology.size());
  for (std::size_t i = 0; i < topology.size(); ++i) {
    NodeSummary& s = result.per_node[i];
    s.sum = reduced.estimate(i, 0);
    const double sumsq = reduced.estimate(i, 1);
    s.count = reduced.estimate(i, 2);
    if (std::isfinite(s.count) && s.count > 0.0) {
      s.mean = s.sum / s.count;
      s.variance = std::max(0.0, sumsq / s.count - s.mean * s.mean);
    } else {
      s.mean = s.variance = std::numeric_limits<double>::quiet_NaN();
    }
    s.min = extrema[i].first;
    s.max = extrema[i].second;
  }
  return result;
}

std::vector<double> estimate_network_size(const net::Topology& topology,
                                          const SummaryOptions& options) {
  std::vector<double> values(topology.size(), 0.0);
  values[0] = 1.0;
  ReduceOptions ro;
  ro.algorithm = options.algorithm;
  ro.aggregate = core::Aggregate::kAverage;
  ro.seed = options.seed ^ 0x512eULL;
  ro.target_accuracy = options.target_accuracy;
  ro.max_rounds = options.max_rounds;
  ro.faults = options.faults;
  const auto reduced = reduce(topology, values, ro);
  std::vector<double> out(topology.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double avg = reduced.estimate(i);
    out[i] = avg > 0.0 ? 1.0 / avg : std::numeric_limits<double>::quiet_NaN();
  }
  return out;
}

std::vector<std::pair<double, double>> distributed_extrema(const net::Topology& topology,
                                                           std::span<const double> values,
                                                           const SummaryOptions& options) {
  PCF_CHECK_MSG(values.size() == topology.size(), "one value per node required");
  // Extrema spread only within a connected component; a disconnected graph
  // would silently report per-component extrema.
  const auto dist = topology.bfs_distances(0);
  std::size_t ecc = 0;
  for (const std::size_t d : dist) {
    PCF_CHECK_MSG(d != std::numeric_limits<std::size_t>::max(),
                  "extrema gossip needs a connected topology");
    ecc = std::max(ecc, d);
  }
  // Min/max gossip needs no mass conservation: the aggregate is idempotent
  // and monotone, so each node keeps the smallest and largest values it has
  // seen and pushes them to one uniformly drawn neighbor per round. Loss only
  // delays, and duplicates and reordering would be harmless.
  std::vector<double> mins(values.begin(), values.end());
  std::vector<double> maxs(values.begin(), values.end());
  const Rng base(options.seed ^ 0xe87e5aULL);
  std::vector<Rng> rngs;
  for (net::NodeId i = 0; i < topology.size(); ++i) {
    PCF_CHECK_MSG(!topology.neighbors(i).empty(), "node needs at least one neighbor");
    rngs.push_back(base.fork(i));
  }
  std::size_t rounds = options.extrema_rounds;
  if (rounds == 0) {
    // Push-only extrema spread like a rumor: O(diameter + log n) rounds in
    // expectation; the 4x margin makes non-completion astronomically rare.
    // Diameter is expensive on big graphs; the BFS eccentricity from node 0
    // is a 2-approximation and cheap.
    const double n = static_cast<double>(topology.size());
    rounds = 4 * static_cast<std::size_t>(std::log2(n) + 1) + 4 * ecc;
  }
  Rng loss_rng(options.seed ^ 0x10575);
  for (std::size_t r = 0; r < rounds; ++r) {
    for (net::NodeId i = 0; i < topology.size(); ++i) {
      const auto nbrs = topology.neighbors(i);
      const net::NodeId to = nbrs[static_cast<std::size_t>(rngs[i].below(nbrs.size()))];
      if (options.faults.message_loss_prob > 0.0 &&
          loss_rng.chance(options.faults.message_loss_prob)) {
        continue;
      }
      mins[to] = std::min(mins[to], mins[i]);
      maxs[to] = std::max(maxs[to], maxs[i]);
    }
  }
  std::vector<std::pair<double, double>> result;
  result.reserve(topology.size());
  for (std::size_t i = 0; i < mins.size(); ++i) result.emplace_back(mins[i], maxs[i]);
  return result;
}

}  // namespace pcf::sim
