// pcflow-lint — project-specific static analysis for determinism, RNG-stream,
// layering and lock-annotation discipline.
//
// The paper's claims (machine-precision accuracy, exact fault recovery) are
// testable only because every engine run is bit-deterministic per seed: the
// golden traces, the byte-identical bench/chaos JSON contracts and the
// differential oracle all compare runs byte-for-byte. A single stray
// wall-clock read, raw std::mt19937 draw or unordered_map iteration breaks
// those layers silently. The runtime invariant checkers (sim/invariants.hpp)
// catch violations after they happen; this tool keeps the bug classes from
// compiling in the first place.
//
// Rule catalog (each individually toggleable; docs/TESTING.md has the full
// policy):
//   D1  no nondeterminism sources (std::rand, time(), system/steady clocks,
//       getenv) in deterministic paths: src/core, src/sim, src/net, src/bench.
//       PerfCounters (support/perf.hpp) is the one sanctioned clock owner.
//   D2  no std::unordered_{map,set,multimap,multiset} in deterministic paths
//       (iteration order is implementation-defined; a declaration needs a
//       suppression explaining why the order never escapes).
//   D3  RNG-stream discipline: std random engines/distributions and
//       #include <random> only inside src/support/rng.* — everything else
//       draws through the seeded pcf::Rng API so the documented stream
//       layout stays intact.
//   D4  sharding discipline: no raw threading primitives (std::thread,
//       std::jthread, std::async, #include <thread>/<future>) in
//       deterministic paths. Parallelism there must go through
//       support/parallel.hpp (resolve_thread_count + parallel_for_index),
//       whose fixed work partition is what keeps sharded output
//       byte-identical to serial. src/runtime owns its threads by design.
//   F1  float discipline: no `float` in src/core / src/linalg numeric state;
//       no ==/!= against nonzero floating literals outside oracle files
//       (comparison against literal 0.0 is the sanctioned exact-sentinel
//       idiom; the accuracy claims are about double cancellation behavior).
//   S1  OS-boundary discipline: no socket/process syscalls (socket, sendto,
//       recvfrom, fork, waitpid, kill, poll, ...) or their headers
//       (<sys/socket.h>, <unistd.h>, <signal.h>, ...) outside the two files
//       that own the boundary — src/runtime/udp.* and
//       src/runtime/socket_runtime.*. The reducers, engines, topologies and
//       even the rest of src/runtime stay transport-agnostic; that is what
//       lets one protocol implementation run under the simulator, the
//       threaded runtime and real UDP unchanged.
//   L1  layer DAG: cross-directory includes must follow
//       support -> net.graph -> core -> {net.transport, sim, linalg} ->
//       {runtime, bench, tools} (src/net splits into the pure graph layer
//       below core and transport.* above it, mirroring the pcf_net /
//       pcf_transport CMake targets). src/core may never include sim/,
//       runtime/ or bench/. In whole-repo mode (run_directory / run_files)
//       L1 additionally builds the file-level include graph and reports any
//       cycle; cycle diagnostics are structural and cannot be suppressed.
//   T1  guarded-by presence: in src/runtime and support/parallel.hpp, a data
//       member declared within 40 tokens of a mutex / condition_variable
//       member must carry PCF_GUARDED_BY(...) (support/annotations.hpp).
//       Clang proves the annotations right (-Wthread-safety); T1 is what
//       keeps them from silently rotting on gcc builds, which ignore them.
//   LNT suppression hygiene: every `pcflow-lint: allow(...)` must name a
//       known rule, carry a non-empty reason, and actually suppress
//       something. LNT itself cannot be suppressed.
//
// Suppression syntax, on the offending line or on its own line directly
// above it:
//   foo();  // pcflow-lint: allow(D1) reason why this one use is safe
#pragma once

#include <cstddef>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace pcf::lint {

enum class Rule { kD1, kD2, kD3, kD4, kF1, kS1, kL1, kT1, kLnt };

inline constexpr Rule kAllRules[] = {Rule::kD1, Rule::kD2, Rule::kD3, Rule::kD4, Rule::kF1,
                                     Rule::kS1, Rule::kL1, Rule::kT1, Rule::kLnt};

[[nodiscard]] std::string_view to_string(Rule rule) noexcept;
/// One-line human description used by --list-rules.
[[nodiscard]] std::string_view describe(Rule rule) noexcept;
/// Parses "D1" | "d1" | ... Throws ContractViolation on unknown names.
[[nodiscard]] Rule parse_rule(std::string_view name);

struct Diagnostic {
  std::string file;  ///< root-relative path with forward slashes
  std::size_t line = 0;
  std::size_t col = 0;
  Rule rule = Rule::kLnt;
  std::string message;
};

struct Options {
  /// Rules to run. Empty = all rules.
  std::vector<Rule> enabled;
  [[nodiscard]] bool rule_enabled(Rule rule) const noexcept;
};

/// Lints one in-memory translation unit. `virtual_path` is the root-relative
/// path used for rule scoping (e.g. "src/core/foo.cpp" arms D1/D2/F1) — this
/// is also what lets tests feed fixture files under any path they like.
/// Diagnostics come back sorted by (line, col, rule).
[[nodiscard]] std::vector<Diagnostic> lint_source(std::string_view virtual_path,
                                                  std::string_view source,
                                                  const Options& options = {});

struct RunResult {
  std::vector<Diagnostic> diagnostics;  ///< sorted by (file, line, col, rule)
  std::size_t files_scanned = 0;
};

/// Lints the project tree under `root`: every *.hpp / *.cpp beneath
/// src/, bench/ and examples/ (tests are exercised by their own harness and
/// may legitimately compare floats exactly or poke nondeterminism). File
/// discovery order is normalized by sorting, so output is byte-deterministic.
[[nodiscard]] RunResult run_directory(const std::filesystem::path& root,
                                      const Options& options = {});

/// Lints an explicit file list (paths relative to `root` or absolute).
/// This is also where the cross-TU half of L1 runs: the include graph over
/// the scanned set is checked for cycles (per-file band checks happen inside
/// lint_source like every other rule).
[[nodiscard]] RunResult run_files(const std::filesystem::path& root,
                                  const std::vector<std::string>& files,
                                  const Options& options = {});

/// Renders `file:line:col: RULE: message` lines plus a trailing summary.
/// Deterministic: same inputs, same bytes.
[[nodiscard]] std::string format_report(const RunResult& result, bool quiet = false);

/// Renders the same result as JSON (`pcflow lint --format=json`):
/// schema "pcflow-lint" version 1, fixed key order, byte-deterministic.
/// Shape: { schema, schema_version, files_scanned, diagnostic_count,
/// diagnostics: [{file, line, col, rule, message}...] } with diagnostics in
/// the same (file, line, col, rule, message) order as the text report.
[[nodiscard]] std::string format_report_json(const RunResult& result);

/// Entry point shared by the standalone `pcflow-lint` binary and the
/// `pcflow lint` subcommand. Returns the process exit code: 0 clean,
/// 1 diagnostics found, 2 usage/IO error.
[[nodiscard]] int run_cli(int argc, const char* const* argv);

}  // namespace pcf::lint
