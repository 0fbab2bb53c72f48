// Shared helpers for the figure-reproduction benches.
//
// Every bench binary prints (1) a header with the exact configuration,
// (2) an aligned table with the series the paper's figure plots, and
// (3) optionally the same data as CSV (--csv=path).
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "core/mass.hpp"
#include "core/reducer.hpp"
#include "net/topology.hpp"
#include "sim/engine_sync.hpp"
#include "sim/metrics.hpp"
#include "sim/reduce.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

namespace pcf::bench {

/// Result of an accuracy measurement (Figs. 3/6 style).
struct AccuracyResult {
  double best_max_error = 0.0;  ///< minimum over rounds of max local error
  /// Minimum over rounds of the 99th-percentile local error. Push-based
  /// gossip occasionally starves a node's weight for a few rounds, which
  /// transiently inflates that node's relative error; the p99 excludes those
  /// outliers and exposes the algorithms' *systematic* accuracy floor.
  double best_p99_error = 0.0;
  double final_max_error = 0.0;
  double final_median_error = 0.0;
  double max_abs_flow = 0.0;  ///< largest flow magnitude seen
  std::size_t rounds = 0;
};

/// Runs the engine until the best (minimum over rounds) max local error has
/// not improved by ≥ 2% for `patience` consecutive rounds, or `max_rounds`.
/// This measures the "globally achievable accuracy" the paper's Figs. 3/6
/// report: the error of a converged run, robust against the post-convergence
/// fluctuation caused by transient low node weights.
[[nodiscard]] AccuracyResult measure_achievable_accuracy(sim::SyncEngine& engine,
                                                         std::size_t max_rounds,
                                                         std::size_t patience = 500);

/// Per-node uniform [0,1) inputs, seeded reproducibly.
[[nodiscard]] std::vector<double> random_inputs(std::size_t n, std::uint64_t seed);

/// Prints the standard bench banner.
void print_banner(const std::string& title, const std::string& paper_ref);

/// Emits the table and, if --csv was given, writes the CSV file.
void emit(const Table& table, const CliFlags& flags);

/// Registers the flags every figure bench shares (--seed, --csv).
void define_common_flags(CliFlags& flags);

}  // namespace pcf::bench
