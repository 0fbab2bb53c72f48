// pcfbench: times one workload to its answer and checks every answer.
//
//   pcfbench --workload NAME --seed N --seconds S --trace 0|1
//            [--report FILE] [--spans FILE] [--scratch DIR] [--tiny] [--perturb]
//   pcfbench --triad
//
// Runs closed-loop trials of the workload (one at a time, each on the same
// seeded input) until the next trial would overrun S seconds, then tops the
// set-up samples up to kMinSetups. Prints every metric by name with its unit
// and writes the full report (metrics, per-trial numbers, failures, build) as
// JSON to --report. With --trace 1 every other trial, starting with the
// first, records spans around the library calls; the per-layer metrics come
// from those trials, the end-to-end metrics from the untraced ones, and
// trace_overhead compares the two. perfbench/run.py builds this binary and
// turns the report into the benchmark's result line.
//
// --triad runs the memory-bandwidth probe alone and prints it as JSON.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "support/json.hpp"
#include "support/stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace pcfbench {
namespace {

constexpr std::size_t kMinSetups = 7;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool perturb = false;
  bool triad = false;
  std::string report;
  std::string spans;
  std::string scratch = ".";
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr, "pcfbench: %s\n", problem.c_str());
  std::fprintf(stderr,
               "usage: pcfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--report FILE] [--spans FILE] [--scratch DIR] [--tiny] [--perturb]\n"
               "       pcfbench --triad\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(flag + " needs a value");
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        args.workload = value();
      } else if (flag == "--seed") {
        args.seed = std::stoull(value());
        have_seed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value());
        have_seconds = true;
      } else if (flag == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        args.trace = v == "1";
        have_trace = true;
      } else if (flag == "--report") {
        args.report = value();
      } else if (flag == "--spans") {
        args.spans = value();
      } else if (flag == "--scratch") {
        args.scratch = value();
      } else if (flag == "--tiny") {
        args.tiny = true;
      } else if (flag == "--perturb") {
        args.perturb = true;
      } else if (flag == "--triad") {
        args.triad = true;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (args.triad) return args;
  if (find_workload(args.workload) == nullptr) {
    std::string message = "unknown workload '";
    message += args.workload;
    message += "'; one of:";
    for (const auto n : workload_names()) message.append(" ").append(n);
    usage(message);
  }
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds and --trace are required");
  }
  if (!(args.seconds > 0.0 && args.seconds <= 600.0)) usage("--seconds must be in (0, 600]");
  return args;
}

/// Peak resident memory of this process and of any child it waited for
/// (the socket runtime's shard processes), in MiB.
double peak_rss_mb() {
  double kib = 0.0;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) kib = std::strtod(line.c_str() + 6, nullptr);
  }
  rusage children{};
  if (getrusage(RUSAGE_CHILDREN, &children) == 0) {
    kib = std::max(kib, static_cast<double>(children.ru_maxrss));
  }
  return kib / 1024.0;
}

// ---- the memory-bandwidth probe -------------------------------------------

/// Last-level cache size in bytes (0 when the system does not say).
std::size_t llc_bytes() {
  for (const int name : {_SC_LEVEL4_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE, _SC_LEVEL2_CACHE_SIZE}) {
    const long v = sysconf(name);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 0;
}

/// Single-thread STREAM triad a = b + s*c, best of several passes. The three
/// arrays together span 4x the last-level cache (capped at 1.5 GiB so the
/// probe stays small on a shared host), so no pass finds the previous pass's
/// data in cache. Bytes counted as in STREAM: 3 arrays x 8 bytes per element.
int run_triad() {
  const std::size_t llc = llc_bytes();
  const std::size_t total = std::min<std::size_t>(
      std::max<std::size_t>(4 * llc, std::size_t{256} << 20), std::size_t{1536} << 20);
  const std::size_t n = total / (3 * sizeof(double));
  std::vector<double> a(n, 0.0);
  std::vector<double> b(n, 1.0);
  std::vector<double> c(n, 2.0);
  const double s = 3.0;
  double best = 1e300;
  for (int pass = 0; pass < 5; ++pass) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
    best = std::min(best, seconds_since(start));
    std::swap(a, b);
  }
  double check = 0.0;
  for (std::size_t i = 0; i < n; i += 4096) check += a[i] + b[i];
  const double gbps = 3.0 * static_cast<double>(n * sizeof(double)) / best / 1e9;
  std::printf(
      "{\"triad_gbps\": %.6g, \"llc_bytes\": %zu, \"array_bytes\": %zu, \"check\": %.17g}\n",
      gbps, llc, n * sizeof(double), check);
  return 0;
}

// ---- metrics ----------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
  std::string note;
};
using Metrics = std::map<std::string, Metric>;

std::string unit_of_counter(const std::string& name) {
  if (name.size() > 2 && name.compare(name.size() - 2, 2, "_s") == 0) return "s";
  if (name == "sim.checkpoint_bytes") return "bytes";
  if (name == "runtime.loss_rate") return "ratio";
  return "count";
}

/// Every counter a workload can report; the others read 0 on it, which is
/// how a bypassed layer shows.
constexpr const char* kCounterNames[] = {
    "sim.rounds", "sim.recovery_rounds", "sim.gossip_s", "sim.faults_s", "sim.delivery_s",
    "sim.link_failures", "sim.link_heals", "sim.checkpoint_bytes", "core.messages",
    "core.deliveries", "core.doubles_on_wire", "support.shards", "runtime.datagrams_sent",
    "runtime.datagrams_received", "runtime.loss_rate", "runtime.frames_rejected",
    "runtime.heartbeats_sent", "runtime.detector_downs", "runtime.detector_ups",
    "runtime.mailbox_blocked_pushes", "runtime.mailbox_rejected_pushes",
    "runtime.mailbox_high_watermark", "runtime.mailbox_dropped", "runtime.restarts",
    "runtime.threaded_run_s", "runtime.threaded_drain_s"};

/// Span name -> per-layer metric fed by the sum of its durations.
constexpr std::pair<const char*, const char*> kSpanMetrics[] = {
    {"net.topology", "net.topology_s"},
    {"sim.engine_build", "sim.engine_build_s"},
    {"sim.oracle", "sim.oracle_s"},
    {"sim.checkpoint_save", "sim.checkpoint_save_s"},
    {"sim.restore", "sim.restore_s"},
    {"sim.heal", "sim.heal_s"},
    {"runtime.socket_build", "runtime.socket_build_s"},
    {"runtime.net_trial", "runtime.socket_run_s"},
};

/// Layers whose self time the traced run reports ("bench" is the trial
/// loop's own time outside every library call).
constexpr const char* kSpanLayers[] = {"bench", "net", "sim", "runtime"};

struct TrialRecord {
  TrialResult result;
  bool traced = false;
};

Metrics end_to_end(const std::vector<TrialRecord>& trials, const std::vector<double>& setups,
                   std::size_t failed, double first_trial_rss_mb) {
  // End-to-end numbers come from untraced trials whenever the run has any.
  std::vector<const TrialResult*> basis;
  for (const auto& t : trials) {
    if (!t.traced) basis.push_back(&t.result);
  }
  if (basis.empty()) {
    for (const auto& t : trials) basis.push_back(&t.result);
  }
  std::vector<double> solve, recover, deliveries, datagrams;
  double worst_error = 0.0;
  for (const TrialResult* r : basis) {
    solve.push_back(r->solve_s);
    recover.push_back(r->recover_s);
    deliveries.push_back(r->solve_s > 0.0 ? r->deliveries / r->solve_s : 0.0);
    datagrams.push_back(r->solve_s > 0.0 ? r->datagrams_received / r->solve_s : 0.0);
  }
  for (const auto& t : trials) worst_error = std::max(worst_error, t.result.max_rel_error);

  Metrics m;
  const std::string n_setups = "median of " + std::to_string(setups.size()) + " set-ups";
  const std::string n_trials = "median of " + std::to_string(basis.size()) + " trials";
  m["setup_s"] = {pcf::median(setups), "s", n_setups};
  // The tail percentile needs at least ten samples beyond it.
  m["solve_s"] = {pcf::median(solve), "s",
                  n_trials + (solve.size() >= 100
                                  ? ", p90 " + std::to_string(pcf::quantile(solve, 0.9)) + " s"
                                  : ", no tail percentile below 100 trials")};
  m["recover_s"] = {pcf::median(recover), "s", n_trials};
  m["deliveries_per_s"] = {pcf::median(deliveries), "1/s", n_trials};
  m["datagrams_per_s"] = {pcf::median(datagrams), "1/s", n_trials};
  m["max_rel_error"] = {worst_error, "ratio", "worst answer of the run"};
  m["failed_share"] = {static_cast<double>(failed) / static_cast<double>(trials.size()), "share",
                       std::to_string(failed) + " of " + std::to_string(trials.size()) +
                           " attempted"};
  m["peak_rss_mb"] = {first_trial_rss_mb, "MB",
                      "VmHWM after the first trial, shard children included"};
  return m;
}

Metrics per_layer(const std::vector<TrialRecord>& trials, const Tracer& tracer) {
  std::map<std::string, std::vector<double>> samples;
  std::vector<double> steps_ms;
  std::vector<double> traced_solve;
  std::vector<double> untraced_solve;
  for (std::size_t k = 0; k < trials.size(); ++k) {
    const TrialResult& r = trials[k].result;
    if (!trials[k].traced) {
      untraced_solve.push_back(r.solve_s);
      continue;
    }
    traced_solve.push_back(r.solve_s);
    const int id = static_cast<int>(k);
    for (const char* name : kCounterNames) {
      const auto it = r.counters.find(name);
      samples[name].push_back(it == r.counters.end() ? 0.0 : it->second);
    }
    const auto totals = tracer.total_by_name(id);
    for (const auto& [span, metric] : kSpanMetrics) {
      const auto it = totals.find(span);
      samples[metric].push_back(it == totals.end() ? 0.0 : it->second);
    }
    const auto self = tracer.self_by_layer(id);
    for (const char* layer : kSpanLayers) {
      const auto it = self.find(layer);
      samples[std::string(layer) + ".self_s"].push_back(it == self.end() ? 0.0 : it->second);
    }
    const double gossip = r.counters.count("sim.gossip_s") ? r.counters.at("sim.gossip_s") : 0.0;
    const double kernel_deliveries =
        r.counters.count("core.deliveries") ? r.counters.at("core.deliveries") : 0.0;
    samples["core.kernel_deliveries_per_s"].push_back(gossip > 0.0 ? kernel_deliveries / gossip
                                                                   : 0.0);
    for (const double d : tracer.durations(id, "sim.step")) steps_ms.push_back(1e3 * d);
  }

  Metrics m;
  const std::string n_traced = "median of " + std::to_string(traced_solve.size()) +
                               " traced trials";
  for (const auto& [name, values] : samples) {
    std::string unit = unit_of_counter(name);
    if (name == "core.kernel_deliveries_per_s") unit = "1/s";
    m[name] = {pcf::median(values), unit, n_traced};
  }
  const std::string n_steps = "of " + std::to_string(steps_ms.size()) + " steps";
  // Workloads without an engine step read 0.
  const auto step_quantile = [&](double q) {
    return steps_ms.empty() ? 0.0 : pcf::quantile(steps_ms, q);
  };
  m["sim.round_p50_ms"] = {step_quantile(0.5), "ms", n_steps};
  m["sim.round_p90_ms"] = {step_quantile(0.9), "ms", n_steps};
  const bool comparable = !traced_solve.empty() && !untraced_solve.empty();
  const double overhead =
      comparable ? pcf::median(traced_solve) / pcf::median(untraced_solve) - 1.0 : 0.0;
  m["trace_overhead"] = {overhead, "ratio",
                         comparable ? "traced vs untraced median solve_s, " +
                                          std::to_string(traced_solve.size()) + " vs " +
                                          std::to_string(untraced_solve.size()) + " trials"
                                    : "needs a traced and an untraced trial"};
  return m;
}

void write_metrics(pcf::JsonWriter& json, const char* key, const Metrics& metrics) {
  json.key(key);
  json.begin_object();
  for (const auto& [name, metric] : metrics) {
    json.key(name);
    json.begin_object();
    json.field("value", metric.value);
    json.field("unit", metric.unit);
    json.field("note", metric.note);
    json.end_object();
  }
  json.end_object();
}

void print_metrics(const char* title, const Metrics& metrics) {
  std::printf("%s:\n", title);
  for (const auto& [name, metric] : metrics) {
    std::printf("  %-34s %16.9g %-6s %s\n", name.c_str(), metric.value, metric.unit.c_str(),
                metric.note.c_str());
  }
}

int run(const Args& args) {
  const Workload& workload = *find_workload(args.workload);
  WorkloadOptions options;
  options.seed = args.seed;
  options.tiny = args.tiny;
  options.perturb = args.perturb;
  options.scratch_dir = args.scratch;

  Tracer tracer;
  std::vector<TrialRecord> trials;
  std::vector<double> setups;
  std::size_t failed = 0;
  double first_trial_rss_mb = 0.0;
  const auto run_start = Clock::now();
  const std::size_t min_trials = args.trace ? 2 : 1;
  for (;;) {
    const int id = static_cast<int>(trials.size());
    TrialRecord record;
    record.traced = args.trace && id % 2 == 0;
    tracer.begin_trial(id, record.traced);
    const auto trial_start = Clock::now();
    try {
      const auto span = tracer.span("bench.trial");
      record.result = workload.trial(options, tracer);
    } catch (const std::exception& e) {
      record.result.failures.push_back(std::string("threw: ") + e.what());
    }
    const double trial_s = seconds_since(trial_start);
    TrialResult& r = record.result;
    if (workload.deterministic && !trials.empty() && r.failures.empty()) {
      // Every trial reduces the same seeded input, so a deterministic engine
      // must repeat trial 0 exactly.
      const TrialResult& first = trials.front().result;
      if (r.fingerprint != first.fingerprint) r.failures.push_back("state differs from trial 0");
      for (const auto& [name, value] : r.counters) {
        if (unit_of_counter(name) != "s" && first.counters.count(name) &&
            first.counters.at(name) != value) {
          r.failures.push_back(name + " differs from trial 0");
        }
      }
    }
    if (!r.failures.empty()) ++failed;
    if (!record.traced) setups.push_back(r.setup_s);
    // Later trials reuse (and fragment) the allocator's memory, so only the
    // first trial's peak is independent of how many trials the run fits.
    if (trials.empty()) first_trial_rss_mb = peak_rss_mb();
    trials.push_back(std::move(record));
    const double elapsed = seconds_since(run_start);
    if (trials.size() >= min_trials && elapsed + trial_s > args.seconds) break;
  }
  tracer.begin_trial(-1, false);
  while (setups.size() < kMinSetups) setups.push_back(workload.setup_only(options, tracer));
  const double wall_s = seconds_since(run_start);

  const Metrics e2e = end_to_end(trials, setups, failed, first_trial_rss_mb);
  const Metrics layers = args.trace ? per_layer(trials, tracer) : Metrics{};

  std::size_t traced = 0;
  for (const auto& t : trials) traced += t.traced ? 1 : 0;
  std::printf("pcfbench %s seed=%llu trace=%d%s: %zu trials (%zu traced), %zu set-ups, %.1f s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0, args.tiny ? " tiny" : "", trials.size(), traced, setups.size(),
              wall_s);
  std::printf("build: %s, %s, flags '%s'\n", PCFBENCH_BUILD_TYPE, PCFBENCH_COMPILER,
              PCFBENCH_CXX_FLAGS);
  print_metrics("end-to-end", e2e);
  if (args.trace) print_metrics("per-layer (traced trials)", layers);
  for (std::size_t k = 0; k < trials.size(); ++k) {
    for (const auto& f : trials[k].result.failures) {
      std::printf("FAILED trial %zu: %s\n", k, f.c_str());
    }
  }
  std::printf("checks: %zu of %zu trials failed\n", failed, trials.size());

  if (!args.report.empty()) {
    pcf::JsonWriter json;
    json.begin_object();
    json.field("schema", "pcfbench-report");
    json.field("workload", args.workload);
    json.field("seed", args.seed);
    json.field("seconds", args.seconds);
    json.field("trace", args.trace);
    json.field("tiny", args.tiny);
    json.field("perturb", args.perturb);
    json.field("attempted", static_cast<std::uint64_t>(trials.size()));
    json.field("failed", static_cast<std::uint64_t>(failed));
    json.key("build");
    json.begin_object();
    json.field("type", PCFBENCH_BUILD_TYPE);
    json.field("compiler", PCFBENCH_COMPILER);
    json.field("flags", PCFBENCH_CXX_FLAGS);
    json.end_object();
    write_metrics(json, "end_to_end", e2e);
    write_metrics(json, "per_layer", layers);
    json.key("setups_s");
    json.begin_array();
    for (const double s : setups) json.value(s);
    json.end_array();
    json.key("trials");
    json.begin_array();
    for (const auto& t : trials) {
      json.begin_object();
      json.field("traced", t.traced);
      json.field("setup_s", t.result.setup_s);
      json.field("solve_s", t.result.solve_s);
      json.field("recover_s", t.result.recover_s);
      json.field("max_rel_error", t.result.max_rel_error);
      json.key("counters");
      json.begin_object();
      for (const auto& [name, value] : t.result.counters) json.field(name, value);
      json.end_object();
      json.key("failures");
      json.begin_array();
      for (const auto& f : t.result.failures) json.value(f);
      json.end_array();
      json.end_object();
    }
    json.end_array();
    json.end_object();
    std::ofstream(args.report) << json.str() << "\n";
  }
  if (args.trace && !args.spans.empty()) std::ofstream(args.spans) << tracer.to_json() << "\n";
  return 0;
}

}  // namespace
}  // namespace pcfbench

int main(int argc, char** argv) {
  const pcfbench::Args args = pcfbench::parse_args(argc, argv);
  if (args.triad) return pcfbench::run_triad();
  return pcfbench::run(args);
}
