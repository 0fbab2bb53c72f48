// Chaos sweep harness — ramping churn intensity across algorithm × topology
// cells, measuring how each algorithm rides out (and recovers from) a hostile
// network.
//
// Every trial has two phases on the synchronous engine:
//   1. chaos phase   — `churn_rounds` rounds under the scaled fault cocktail:
//                      link churn (fail/heal cycling), adversarial delivery
//                      (duplication + bounded reordering), one node crash with
//                      a later rejoin, and a failure-detector false positive;
//   2. recovery phase — the probabilistic knobs are zeroed, every link still
//                      dead from churn is healed, and the engine runs until
//                      the estimates re-agree (relative spread ≤ 1e-9 —
//                      consensus restored) or `recovery_max_rounds` elapses.
//                      The rounds needed are the recovery time.
// A trial *survives* when consensus returns AND the residual error against
// the retargeted oracle stays under `tol` — interrupted PCF cancellation
// handshakes each cost up to one in-flight flow of mass (the two-generals
// window), so the residual, not exact reconvergence, is the honest accuracy
// measure. Cells aggregate recovery-time and final-error quantiles.
//
// Determinism: like `pcflow bench`, every trial derives all randomness from
// (sweep seed, cell index, trial index); the JSON schema ("pcflow-chaos",
// versioned) carries no wall-clock fields, so two runs with the same seed are
// byte-identical — CI checks this.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pcf::bench {

/// One chaos cell: an algorithm on a topology at a churn intensity.
struct ChaosCell {
  std::string name;       ///< unique id, e.g. "pcf/ring:16/x2"
  std::string algorithm;  ///< ps | pf | pcf | fu | corr | fumd
  std::string topology;   ///< net::Topology::parse spec
  double intensity = 1.0;  ///< scales the churn / duplication / reorder rates
  std::size_t trials = 2;
  std::size_t churn_rounds = 150;          ///< chaos-phase length
  std::size_t recovery_max_rounds = 1500;  ///< recovery-phase cap
  /// Residual oracle error a consensus-restoring trial may carry and still
  /// count as survived (accumulated fault bias, not divergence).
  double tol = 1e-2;
};

/// Simple quantile summary (exact, over the cell's trials).
struct QuantileSummary {
  double p50 = 0.0;
  double p90 = 0.0;
  double max = 0.0;
};

struct ChaosCellResult {
  ChaosCell cell;
  std::size_t nodes = 0;
  std::size_t consensus = 0;  ///< trials whose estimates re-agreed in time
  std::size_t survived = 0;   ///< consensus trials whose residual error ≤ tol
  QuantileSummary recovery_rounds;  ///< rounds to consensus (cap if never)
  QuantileSummary final_error;      ///< oracle max error at stop
  // Summed fault telemetry over the cell's trials.
  std::uint64_t link_failures = 0;
  std::uint64_t link_heals = 0;
  std::uint64_t rejoins = 0;
  std::uint64_t false_detects = 0;
  std::uint64_t messages_duplicated = 0;
};

/// One checkpoint-vs-intrinsic race cell (the second scenario family): the
/// simulation process dies at `kill_round`; two recovery strategies race back
/// to the accuracy target `tol`:
///   * restore   — resume from the last periodic checkpoint (taken every
///                 `checkpoint_every` rounds) and replay to the kill point —
///                 the replay must land on a bitwise-identical state
///                 fingerprint, which the harness verifies — then converge;
///   * intrinsic — PCF's zero-checkpoint story: restart cold from the
///                 construction inputs and let the algorithm reconverge from
///                 scratch.
/// Rounds-after-kill and residual error of both contenders are reported, so
/// the JSON answers "what does a checkpoint actually buy over the algorithm's
/// own fault tolerance, and at what blob size".
struct ChaosRestoreCell {
  std::string name;       ///< unique id, e.g. "restore/pcf/ring:16/arena"
  std::string algorithm;  ///< ps | pf | pcf | fu | corr | fumd
  std::string topology;   ///< net::Topology::parse spec
  /// Position in the family's seed sequence (trial seeds mix it in). Stable
  /// when cells are retired from the grid, so the survivors replay the same
  /// trials as in earlier reports.
  std::size_t seed_index = 0;
  std::size_t trials = 2;
  std::size_t kill_round = 60;        ///< the process dies after this round
  std::size_t checkpoint_every = 20;  ///< periodic checkpoint cadence
  std::size_t max_rounds = 3000;      ///< per-contender convergence cap
  double tol = 1e-9;                  ///< accuracy target both contenders race to
};

struct ChaosRestoreResult {
  ChaosRestoreCell cell;
  std::size_t nodes = 0;
  /// Trials whose restored replay reproduced the pre-kill state fingerprint
  /// bitwise — must equal `cell.trials` for a healthy checkpoint layer.
  std::size_t fingerprint_matches = 0;
  std::size_t restore_converged = 0;    ///< restore contender reached tol
  std::size_t intrinsic_converged = 0;  ///< intrinsic contender reached tol
  std::uint64_t checkpoint_bytes_full = 0;   ///< wire-inclusive blob size
  std::uint64_t checkpoint_bytes_light = 0;  ///< state-only blob size
  QuantileSummary restore_rounds;    ///< rounds after the kill (replay + converge)
  QuantileSummary restore_error;     ///< residual oracle error at stop
  QuantileSummary intrinsic_rounds;  ///< rounds after the kill (cold reconvergence)
  QuantileSummary intrinsic_error;
};

struct ChaosOptions {
  bool fast = false;  ///< CI-sized sweep (fewer cells, shorter phases)
  std::uint64_t seed = 1;
};

struct ChaosReport {
  ChaosOptions options;
  std::vector<ChaosCellResult> cells;
  std::vector<ChaosRestoreResult> restore_cells;
};

/// The sweep grid for `fast` (CI smoke) or the full ramp.
[[nodiscard]] std::vector<ChaosCell> make_chaos_cells(bool fast);

/// The checkpoint-vs-intrinsic race grid (see ChaosRestoreCell).
[[nodiscard]] std::vector<ChaosRestoreCell> make_chaos_restore_cells(bool fast);

/// Runs the sweep serially in deterministic cell × trial order.
[[nodiscard]] ChaosReport run_chaos(const ChaosOptions& options);

/// Serializes to the versioned CHAOS_pcflow.json schema ("pcflow-chaos", 2).
[[nodiscard]] std::string chaos_report_to_json(const ChaosReport& report);

}  // namespace pcf::bench
