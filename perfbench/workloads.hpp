// The benchmark's workloads: each is one closed-loop trial (one caller, one
// reduction or net trial at a time) driven through the library's public API.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "trace.hpp"

namespace pcfbench {

struct WorkloadOptions {
  std::uint64_t seed = 1;
  /// Small sizes for the self-tests: same code paths, seconds instead of
  /// minutes.
  bool tiny = false;
  /// Scale one node's answer by 1.5 before it is checked, so the check must
  /// report a failure (self-test of the checks themselves).
  bool perturb = false;
  /// Directory the socket runtime may write its run files into.
  std::string scratch_dir;
};

/// What one trial measured and read back from the library.
struct TrialResult {
  double setup_s = 0.0;    ///< spec -> ready engine or runtime
  double solve_s = 0.0;    ///< ready -> answer
  double recover_s = 0.0;  ///< churn-recover: the recovery phase (part of solve_s)
  double deliveries = 0.0;
  double datagrams_received = 0.0;
  double max_rel_error = 0.0;  ///< of the answer as checked (after any perturbation)
  /// Counters the layers expose (engine / runtime perf, fault exposure, net
  /// trial report), under their per-layer metric names.
  std::map<std::string, double> counters;
  /// Exact state identity of a deterministic trial (0 when not deterministic);
  /// trials of one seeded input must agree on it.
  std::uint64_t fingerprint = 0;
  /// Failed checks, one line each; empty when every check passed.
  std::vector<std::string> failures;
};

struct Workload {
  std::string_view name;
  /// The engines are deterministic for a seed; the runtimes are not.
  bool deterministic;
  double (*setup_only)(const WorkloadOptions&, Tracer&);
  TrialResult (*trial)(const WorkloadOptions&, Tracer&);
};

/// The workload called `name`, or nullptr.
[[nodiscard]] const Workload* find_workload(std::string_view name);
[[nodiscard]] std::vector<std::string_view> workload_names();

}  // namespace pcfbench
