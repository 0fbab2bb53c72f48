// Warm-started reduction sessions.
//
// Iterative algorithms (solvers, monitoring loops, factorizations) compute
// many reductions whose inputs change only a little between rounds. Starting
// each reduction from scratch throws away the converged flow state; a
// ReductionSession instead keeps ONE engine alive and feeds input *changes*
// as live data updates — the estimates re-converge from where they are, so
// the closer the new inputs are to the old ones, the fewer gossip rounds the
// next result costs. This is the paper's introduction made concrete: "higher
// level matrix operations can benefit from the iterative nature of
// gossip-based reduction algorithms for saving communication costs".
//
// The session inherits the full fault tolerance of the underlying algorithm:
// link failures and message loss between or during queries only delay
// convergence (see tests).
//
// WHEN TO USE — magnitudes must stay comparable. A gossip reduction's
// relative accuracy is scale-invariant only when its flow state grew at the
// data's scale: a warm session keeps absolute FP noise from earlier values,
// so querying a sequence whose magnitude shrinks geometrically (e.g. the
// residual norms of a converging solver) eventually cannot reach a relative
// target — run those cold (see the note in linalg/distributed_solver.cpp),
// or rescale the inputs by the previous result.
#pragma once

#include "sim/engine_sync.hpp"
#include "sim/reduce.hpp"

namespace pcf::sim {

struct SessionOptions {
  core::Algorithm algorithm = core::Algorithm::kPushCancelFlow;
  core::Aggregate aggregate = core::Aggregate::kSum;
  core::ReducerConfig reducer;
  std::uint64_t seed = 1;
  double target_accuracy = 1e-12;
  std::size_t max_rounds_per_query = 50000;
  FaultPlan faults;  ///< probabilistic knobs apply to the whole session
  /// Engine knobs, forwarded verbatim to SyncEngineConfig — sessions shard
  /// their rounds exactly like standalone engines do.
  Delivery delivery = Delivery::kSequential;
  std::size_t shards = 1;
  InvariantConfig invariants;
};

struct SessionQueryResult {
  /// Estimate per node and component.
  std::vector<std::vector<double>> estimates;
  std::size_t rounds = 0;  ///< gossip rounds THIS query cost
  bool reached_target = false;
  double max_error = 0.0;
  /// Input updates this query addressed to crashed nodes. They are NOT lost:
  /// the session buffers the desired value and re-applies the accumulated
  /// delta when the node rejoins (see reapplied_updates).
  std::size_t dropped_updates = 0;
  /// Buffered updates re-applied this query to nodes that rejoined since the
  /// previous query (a rejoined node restarts from its construction input).
  std::size_t reapplied_updates = 0;

  [[nodiscard]] double estimate(std::size_t node, std::size_t k = 0) const {
    return estimates.at(node).at(k);
  }
};

class ReductionSession {
 public:
  /// Starts the session with the given per-node input vectors (fixed
  /// dimension d ≤ core::kMaxDim for the session's lifetime).
  ReductionSession(net::Topology topology, std::span<const core::Values> initial,
                   SessionOptions options);

  /// Updates the inputs to `values` (deltas are fed as live data updates) and
  /// runs until every node is within the target accuracy again. The first
  /// call with `values == initial` measures the cold-start cost; subsequent
  /// calls are warm.
  SessionQueryResult query(std::span<const core::Values> values);

  /// Re-runs to the target without changing inputs (e.g. after faults).
  SessionQueryResult refresh();

  /// Injects a permanent link failure into the live session.
  void fail_link(net::NodeId a, net::NodeId b);

  /// Heals a previously failed link in the live session; the algorithms
  /// re-admit the neighbor (ArenaFleet::on_link_up) and re-converge warm.
  void heal_link(net::NodeId a, net::NodeId b);

  [[nodiscard]] std::size_t total_rounds() const noexcept { return engine_.round(); }
  [[nodiscard]] std::size_t queries() const noexcept { return queries_; }
  [[nodiscard]] const SyncEngine& engine() const noexcept { return engine_; }
  /// The options the session was constructed with — external drivers (e.g.
  /// the net-trial harness serving a session as its in-process baseline)
  /// mirror these into their own scenario so both runs reduce the same
  /// problem to the same target.
  [[nodiscard]] const SessionOptions& options() const noexcept { return options_; }

  /// Serializes session bookkeeping (query count, buffered input values,
  /// rejoin watermarks) plus the full engine checkpoint — a warm session
  /// survives a process restart (DESIGN.md §8). Restore into a session
  /// constructed with the identical topology, initial inputs and options;
  /// throws CheckpointError otherwise.
  [[nodiscard]] std::string save_checkpoint(CheckpointMode mode = CheckpointMode::kFull) const;
  void restore(std::string_view checkpoint);

 private:
  SessionQueryResult run_to_target(std::size_t dropped, std::size_t reapplied);
  /// Re-applies the buffered input drift (current − base) of every node that
  /// rejoined since the last query — the rejoined node restarted from its
  /// construction input, so without this the session's belief and the
  /// engine's state diverge silently. Returns how many updates were applied.
  std::size_t sync_rejoined_nodes();

  SessionOptions options_;
  std::vector<core::Values> base_;     ///< construction inputs (rejoin baseline)
  std::vector<core::Values> current_;  ///< latest *desired* value per node
  SyncEngine engine_;
  std::size_t queries_ = 0;
  std::vector<std::uint64_t> seen_rejoins_;  ///< engine rejoin_count watermarks
};

}  // namespace pcf::sim
