// Oracle targets and error traces.
//
// A distributed reduction produces a *sequence* of local estimates on every
// node; the experiments measure, per round, the maximum and median local
// relative error against the true aggregate. The oracle knows the exact
// conserved mass (computed with compensated summation) — something no real
// node can know, which is exactly why it lives in the simulator and not in
// src/core.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/mass.hpp"
#include "support/table.hpp"

namespace pcf {
class BinaryWriter;
class BinaryReader;
}  // namespace pcf

namespace pcf::sim {

class Oracle {
 public:
  /// Computes the exact target aggregate per component from initial masses.
  explicit Oracle(std::span<const core::Mass> initial);

  [[nodiscard]] std::size_t dim() const noexcept { return numerators_.size(); }
  [[nodiscard]] double target(std::size_t k = 0) const;
  /// Conserved numerator Σ s[k] — the quantity the invariant checkers compare
  /// the live nodes' summed masses against.
  [[nodiscard]] double numerator(std::size_t k) const { return numerators_.at(k); }
  /// Conserved total weight Σ w.
  [[nodiscard]] double total_weight() const noexcept { return total_weight_; }

  /// Recomputes the targets from the given current masses — called after a
  /// node crash removed mass from the computation.
  void retarget(std::span<const core::Mass> current);

  /// Shifts the conserved mass by exactly `delta` (a live data update adds
  /// delta to one node's input). Exact regardless of in-flight traffic —
  /// unlike retarget(), which snapshots node states.
  void shift(const core::Mass& delta);

  /// Relative error of one estimate: |e − t| / |t| (absolute error when the
  /// target is 0; +inf for non-finite estimates).
  [[nodiscard]] double error_of(double estimate, std::size_t k = 0) const;

  /// Checkpointing: the conserved targets are mutated by retarget()/shift(),
  /// so they are engine state and travel in checkpoints bit-exactly — written
  /// to `w` or read back from `r` through one field list (field_list).
  void fields(BinaryWriter& w) const;
  void fields(BinaryReader& r);

 private:
  template <class Io, class Self>
  static void field_list(Io& io, Self& self);
  void compute(std::span<const core::Mass> masses);
  std::vector<double> numerators_;  ///< Σ s[k] over the conserved mass
  double total_weight_ = 0.0;       ///< Σ w
};

/// One sampled point of a run.
struct TracePoint {
  double time = 0.0;  ///< round index (sync) or simulation time (async)
  double max_error = 0.0;
  double median_error = 0.0;
  double mean_error = 0.0;
  double max_abs_flow = 0.0;  ///< flow-magnitude diagnostic (ablation A3)
};

/// Error-over-time recording for the failure experiments (Figs. 4/7).
class Trace {
 public:
  void add(TracePoint p) { points_.push_back(p); }
  [[nodiscard]] std::span<const TracePoint> points() const noexcept { return points_; }
  [[nodiscard]] bool empty() const noexcept { return points_.empty(); }

  /// Renders the trace as a table (one row per sample).
  [[nodiscard]] Table to_table() const;

 private:
  std::vector<TracePoint> points_;
};

}  // namespace pcf::sim
