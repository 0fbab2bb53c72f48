// Standardized benchmark suite — the numbers future optimisation PRs are
// judged against.
//
// A suite is a fixed list of scenarios (algorithm × topology × fault
// profile); every scenario runs `trials` independent seeded trials on the
// synchronous engine and reports convergence, accuracy, wire traffic, and
// the engine's PerfCounters (wall-clock per phase, rounds/sec,
// deliveries/sec). Output is machine-readable JSON (BENCH_pcflow.json) with
// a versioned schema so CI can diff runs.
//
// Determinism: every trial derives ALL of its randomness from
// (suite seed, trial index) — see trial_seed() — and writes only its own
// result slot, so the parallel runner (thread pool over the flattened
// scenario × trial job list) is bitwise identical to the serial one. CI
// exploits this: two runs with --timing=false must produce byte-identical
// files. Timing fields are the only nondeterministic output and are nulled
// out under --timing=false.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/rng.hpp"
#include "support/stats.hpp"

namespace pcf::bench {

/// One benchmark cell. `fault_profile` is one of "none" (fault-free), "loss"
/// (10% message loss), "crash" (one node crash at max_rounds/4), "linkfail"
/// (one link cut at max_rounds/4), "churn" (continuous link fail/heal
/// cycling: p=0.002 per link per round, mean-20-round outages).
struct Scenario {
  std::string name;        ///< unique id, e.g. "pcf/ring:16/crash"
  std::string algorithm;   ///< ps | pf | pcf | fu | corr | fumd
  std::string topology;    ///< net::Topology::parse spec
  std::string fault_profile = "none";
  std::size_t trials = 2;
  std::size_t max_rounds = 1500;
  double tol = 1e-9;  ///< oracle max relative error target
  /// Round-loop shards (0 = hardware concurrency).
  std::size_t shards = 1;
  /// Delivery model: "sequential" or "crossing" (see sim::Delivery).
  std::string delivery = "sequential";
  /// When > 0, run exactly this many rounds (no per-round oracle error scan —
  /// the scale suites measure raw round throughput) instead of the
  /// run-until-tol loop. `tol`/`max_rounds` are ignored.
  std::size_t fixed_rounds = 0;
};

/// Per-scenario aggregate over its trials.
struct ScenarioResult {
  Scenario scenario;
  std::size_t nodes = 0;
  std::size_t converged_trials = 0;
  RunningStats rounds;           ///< rounds to target (or cap) per trial
  RunningStats final_max_error;  ///< oracle max error at stop per trial
  std::uint64_t messages_sent = 0;
  std::uint64_t doubles_on_wire = 0;
  std::uint64_t deliveries = 0;
  // Timing (summed over trials; excluded from the determinism contract).
  double wall_seconds = 0.0;
  double faults_seconds = 0.0;
  double gossip_seconds = 0.0;
  double delivery_seconds = 0.0;
};

struct BenchOptions {
  std::string suite = "fast";  ///< fast | standard | scale | scale-fast
  std::uint64_t seed = 1;
  std::size_t threads = 1;  ///< trial-runner workers; 0 = hardware concurrency
  /// When false, every "timing" field is emitted as null so that repeated
  /// runs are byte-identical (the CI drift check).
  bool include_timing = true;
};

struct BenchReport {
  BenchOptions options;
  std::vector<ScenarioResult> scenarios;
};

/// The seed for trial `index` of a suite seeded with `suite_seed`. Documented
/// in DESIGN.md (RNG stream layout): a splitmix64 hash of the index keeps
/// trials statistically independent while staying reproducible from the pair.
[[nodiscard]] std::uint64_t trial_seed(std::uint64_t suite_seed, std::size_t index);

/// Suite builders. "fast" is the CI smoke suite (9 scenarios, small graphs);
/// "standard" is the full grid used for performance tracking; "scale" is the
/// arena-engine throughput suite (torus / random-regular up to 10^6 nodes,
/// fixed-round runs — the BENCH baseline the CI perf gate diffs against);
/// "scale-fast" is its CI-sized cut.
[[nodiscard]] std::vector<Scenario> make_suite(const std::string& name);

/// Runs every scenario of `options.suite` (parallel over trials). Results are
/// independent of `options.threads`.
[[nodiscard]] BenchReport run_bench(const BenchOptions& options);

/// Serializes a report to the versioned BENCH_pcflow.json schema.
[[nodiscard]] std::string report_to_json(const BenchReport& report);

}  // namespace pcf::bench
