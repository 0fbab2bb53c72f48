#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>
#include <utility>

#include "net/topology.hpp"
#include "runtime/net_trial.hpp"
#include "runtime/socket_runtime.hpp"
#include "runtime/threaded_runtime.hpp"
#include "sim/checkpoint.hpp"
#include "sim/engine_sync.hpp"
#include "sim/metrics.hpp"
#include "sim/reduce.hpp"
#include "support/rng.hpp"

namespace pcfbench {

namespace {

using pcf::PerfCounters;
namespace core = pcf::core;
namespace net = pcf::net;
namespace sim = pcf::sim;
namespace runtime = pcf::runtime;

/// Every workload reduces the average with the paper's algorithm.
constexpr core::Algorithm kAlgorithm = core::Algorithm::kPushCancelFlow;

std::size_t nproc() { return std::max(1U, std::thread::hardware_concurrency()); }

struct Scenario {
  net::Topology topology;
  std::vector<core::Mass> masses;
};

/// The seeded input, with the stream layout of the pcflow CLI, `pcflow bench`
/// and run_net_trial: topology from seed ^ 0x7070, node values from
/// seed ^ 0xda7a.
Scenario make_scenario(const std::string& spec, std::uint64_t seed, Tracer& tracer) {
  pcf::Rng topo_rng(seed ^ 0x7070ULL);
  auto topology = [&] {
    const auto span = tracer.span("net.topology");
    return net::Topology::parse(spec, topo_rng);
  }();
  const auto span = tracer.span("sim.inputs");
  pcf::Rng data_rng(seed ^ 0xda7aULL);
  std::vector<double> values(topology.size());
  for (auto& v : values) v = data_rng.uniform();
  auto masses = sim::masses_from_values(values, core::Aggregate::kAverage);
  return {std::move(topology), std::move(masses)};
}

/// Scales one node's answer when the self-test asks for a wrong answer.
void maybe_perturb(const WorkloadOptions& options, std::vector<double>& answer) {
  if (options.perturb && !answer.empty()) answer.front() *= 1.5;
}

/// Largest relative error of the answer against `oracle`; nodes that gave no
/// answer (NaN) are skipped, as run_net_trial does.
double max_rel_error(const sim::Oracle& oracle, const std::vector<double>& answer) {
  double worst = 0.0;
  for (const double e : answer) {
    if (!std::isnan(e)) worst = std::max(worst, oracle.error_of(e));
  }
  return worst;
}

std::string format_error(const char* what, double value, double limit) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s %.3e exceeds %.0e", what, value, limit);
  return buf;
}

// ---- simulator workloads --------------------------------------------------

struct SimReady {
  Scenario scenario;
  std::unique_ptr<sim::SyncEngine> engine;
  double setup_s = 0.0;
};

SimReady sim_setup(const std::string& spec, const sim::SyncEngineConfig& config,
                   const WorkloadOptions& options, Tracer& tracer) {
  const auto start = Clock::now();
  SimReady ready{make_scenario(spec, options.seed, tracer), nullptr, 0.0};
  {
    const auto span = tracer.span("sim.engine_build");
    ready.engine = std::make_unique<sim::SyncEngine>(ready.scenario.topology,
                                                     ready.scenario.masses, config);
  }
  ready.setup_s = seconds_since(start);
  return ready;
}

void read_engine_counters(const sim::SyncEngine& engine, TrialResult& r) {
  const PerfCounters& perf = engine.perf();
  const sim::FaultExposure exposure = engine.fault_exposure();
  r.deliveries = static_cast<double>(perf.deliveries);
  r.counters["sim.rounds"] = static_cast<double>(engine.round());
  r.counters["sim.gossip_s"] = perf.seconds(PerfCounters::Phase::kGossip);
  r.counters["sim.faults_s"] = perf.seconds(PerfCounters::Phase::kFaults);
  r.counters["sim.delivery_s"] = perf.seconds(PerfCounters::Phase::kDelivery);
  r.counters["sim.link_failures"] = static_cast<double>(exposure.link_failures);
  r.counters["sim.link_heals"] = static_cast<double>(exposure.link_heals);
  r.counters["core.messages"] = static_cast<double>(perf.messages_sent);
  r.counters["core.deliveries"] = static_cast<double>(perf.deliveries);
  r.counters["core.doubles_on_wire"] = static_cast<double>(perf.doubles_on_wire);
  r.counters["support.shards"] = static_cast<double>(engine.shards());
  r.fingerprint = engine.state_fingerprint();
}

// cold-scale: the paper's headline at scale. Random-regular because a torus
// needs O(n) rounds to reach the target; no faults, sequential delivery and
// one shard, so the kernel and the oracle do nearly all the work.
struct ColdScale {
  std::string spec;
  double tol = 1e-9;
  std::size_t max_rounds = 2000;
  sim::SyncEngineConfig config;

  explicit ColdScale(const WorkloadOptions& o)
      : spec(o.tiny ? "regular:2000:6" : "regular:100000:6") {
    config.algorithm = kAlgorithm;
    config.seed = o.seed;
    config.mode = sim::EngineMode::kArena;
    config.delivery = sim::Delivery::kSequential;
    config.shards = 1;
  }
};

double cold_scale_setup(const WorkloadOptions& o, Tracer& tracer) {
  const ColdScale w(o);
  return sim_setup(w.spec, w.config, o, tracer).setup_s;
}

TrialResult cold_scale_trial(const WorkloadOptions& o, Tracer& tracer) {
  const ColdScale w(o);
  TrialResult r;
  SimReady ready = sim_setup(w.spec, w.config, o, tracer);
  sim::SyncEngine& engine = *ready.engine;
  r.setup_s = ready.setup_s;

  const auto start = Clock::now();
  for (;;) {
    {
      const auto span = tracer.span("sim.step");
      engine.step();
    }
    double error = 0.0;
    {
      const auto span = tracer.span("sim.oracle");
      error = engine.max_error();
    }
    if (error <= w.tol) break;
    if (engine.round() >= w.max_rounds) {
      r.failures.push_back("no convergence within " + std::to_string(w.max_rounds) + " rounds");
      break;
    }
  }
  r.solve_s = seconds_since(start);

  // The answer, scored against an exact oracle built from the inputs alone.
  std::vector<double> answer = engine.estimates();
  maybe_perturb(o, answer);
  r.max_rel_error = max_rel_error(sim::Oracle(ready.scenario.masses), answer);
  if (!(r.max_rel_error <= w.tol)) {
    r.failures.push_back(format_error("max_rel_error", r.max_rel_error, w.tol));
  }
  read_engine_counters(engine, r);
  return r;
}

// churn-recover: faults, the crossing wire drain, sharding and checkpoints all
// do real work; the kernel does less than on cold-scale.
struct ChurnRecover {
  std::size_t nodes;
  std::string spec;
  std::size_t chaos_rounds;
  std::size_t checkpoint_every;
  std::size_t max_recovery_rounds = 5000;
  double consensus_tol = 1e-9;  ///< relative spread of the estimates
  double residual_tol = 1e-2;   ///< the chaos harness's survival bound
  sim::SyncEngineConfig config;

  explicit ChurnRecover(const WorkloadOptions& o)
      : nodes(o.tiny ? 2000 : 20000),
        spec("regular:" + std::to_string(nodes) + ":6"),
        chaos_rounds(o.tiny ? 40 : 200),
        checkpoint_every(o.tiny ? 10 : 50) {
    config.algorithm = kAlgorithm;
    config.seed = o.seed;
    config.mode = sim::EngineMode::kArena;
    config.delivery = sim::Delivery::kCrossing;
    config.shards = 0;  // one per hardware thread
    config.faults.churn_fail_prob = 0.002;
    config.faults.churn_heal_rate = 0.05;
    // One crash a quarter into chaos, rejoined before it ends, so recovery
    // starts with every node up.
    const auto victim = static_cast<net::NodeId>(nodes / 2);
    const double span = static_cast<double>(chaos_rounds);
    config.faults.node_crashes.push_back({0.25 * span, victim});
    config.faults.node_rejoins.push_back({0.60 * span, victim});
  }
};

double churn_recover_setup(const WorkloadOptions& o, Tracer& tracer) {
  const ChurnRecover w(o);
  return sim_setup(w.spec, w.config, o, tracer).setup_s;
}

TrialResult churn_recover_trial(const WorkloadOptions& o, Tracer& tracer) {
  const ChurnRecover w(o);
  TrialResult r;
  SimReady ready = sim_setup(w.spec, w.config, o, tracer);
  sim::SyncEngine& engine = *ready.engine;
  r.setup_s = ready.setup_s;

  // Chaos, with a full checkpoint at the start of every block of
  // `checkpoint_every` rounds, so the last one is replayed over a real block.
  const auto chaos_start = Clock::now();
  std::string checkpoint;
  std::size_t checkpoint_round = 0;
  while (engine.round() < w.chaos_rounds) {
    if (engine.round() % w.checkpoint_every == 0) {
      const auto span = tracer.span("sim.checkpoint_save");
      checkpoint = engine.save_checkpoint(sim::CheckpointMode::kFull);
      checkpoint_round = engine.round();
    }
    const auto span = tracer.span("sim.step");
    engine.step();
  }
  const double chaos_s = seconds_since(chaos_start);
  const std::uint64_t chaos_fingerprint = engine.state_fingerprint();  // untimed: for the check

  // Recovery: quiet the knobs, heal what churn left dead, run until the
  // estimates agree again.
  const auto recover_start = Clock::now();
  sim::FaultPlan& live = engine.mutable_faults();
  live.churn_fail_prob = 0.0;
  live.churn_heal_rate = 0.0;
  {
    const auto span = tracer.span("sim.heal");
    for (const auto& [a, b] : engine.dead_links()) engine.heal_link_now(a, b);
  }
  const double scale = std::max(1.0, std::fabs(engine.oracle().target()));
  bool consensus = false;
  std::size_t recovery_rounds = 0;
  while (!consensus && recovery_rounds < w.max_recovery_rounds) {
    {
      const auto span = tracer.span("sim.step");
      engine.step();
    }
    ++recovery_rounds;
    const auto span = tracer.span("sim.oracle");
    const std::vector<double> estimates = engine.estimates();
    const auto [lo, hi] = std::minmax_element(estimates.begin(), estimates.end());
    consensus = *hi - *lo <= w.consensus_tol * scale;
  }
  r.recover_s = seconds_since(recover_start);
  r.solve_s = chaos_s + r.recover_s;

  if (!consensus) {
    r.failures.push_back("no consensus within " + std::to_string(w.max_recovery_rounds) +
                         " recovery rounds");
  }
  std::vector<double> answer = engine.estimates();
  maybe_perturb(o, answer);
  // The engine's oracle is exact for the mass that survived the crash.
  r.max_rel_error = max_rel_error(engine.oracle(), answer);
  if (!(r.max_rel_error <= w.residual_tol)) {
    r.failures.push_back(format_error("residual", r.max_rel_error, w.residual_tol));
  }
  read_engine_counters(engine, r);
  r.counters["sim.recovery_rounds"] = static_cast<double>(recovery_rounds);
  r.counters["sim.checkpoint_bytes"] = static_cast<double>(checkpoint.size());

  // The last checkpoint, restored into a fresh engine and replayed to the end
  // of chaos, must reproduce the chaos-end state bit for bit.
  try {
    const auto span = tracer.span("sim.restore");
    sim::SyncEngine fresh(ready.scenario.topology, ready.scenario.masses, w.config);
    fresh.restore(checkpoint);
    fresh.run(w.chaos_rounds - checkpoint_round);
    if (fresh.state_fingerprint() != chaos_fingerprint) {
      r.failures.push_back("restored replay from round " + std::to_string(checkpoint_round) +
                           " diverged from the chaos-end state");
    }
  } catch (const sim::CheckpointError& e) {
    r.failures.push_back(std::string("restore failed: ") + e.what());
  }
  return r;
}

// ---- runtime workloads ----------------------------------------------------

// socket-loopback: only the runtime layers work. 4 shard processes (at most
// one per hardware thread) run flat out into a 4 KiB receive buffer.
struct SocketLoopback {
  runtime::NetTrialOptions options;

  explicit SocketLoopback(const WorkloadOptions& o) {
    options.topology_spec = o.tiny ? "regular:64:6" : "regular:1024:6";
    options.algorithm = kAlgorithm;
    options.seed = o.seed;
    options.runtime.num_shards = std::min<std::size_t>(4, nproc());
    options.runtime.steps_per_node = o.tiny ? 100 : 600;
    options.runtime.step_pacing_us = 0;
    options.runtime.socket_recv_buffer = 4096;
    options.session_baseline = false;
    options.run_dir = (std::filesystem::path(o.scratch_dir) / "socket-loopback").string();
  }

  [[nodiscard]] runtime::SocketRuntimeConfig runtime_config() const {
    runtime::SocketRuntimeConfig config = options.runtime;
    config.algorithm = options.algorithm;
    config.seed = options.seed;
    config.run_dir = options.run_dir;
    return config;
  }
};

/// Spec -> a SocketRuntime with every shard socket bound. run_net_trial builds
/// its own from the same spec; this one only times that step.
struct SocketReady {
  Scenario scenario;
  double setup_s = 0.0;
};

SocketReady socket_setup(const SocketLoopback& w, Tracer& tracer) {
  const auto start = Clock::now();
  SocketReady ready{make_scenario(w.options.topology_spec, w.options.seed, tracer), 0.0};
  {
    const auto span = tracer.span("runtime.socket_build");
    const runtime::SocketRuntime bound(ready.scenario.topology, ready.scenario.masses,
                                       w.runtime_config());
  }
  ready.setup_s = seconds_since(start);
  return ready;
}

double socket_loopback_setup(const WorkloadOptions& o, Tracer& tracer) {
  return socket_setup(SocketLoopback(o), tracer).setup_s;
}

TrialResult socket_loopback_trial(const WorkloadOptions& o, Tracer& tracer) {
  const SocketLoopback w(o);
  TrialResult r;
  const SocketReady ready = socket_setup(w, tracer);
  r.setup_s = ready.setup_s;

  const auto start = Clock::now();
  const runtime::NetTrialReport report = [&] {
    const auto span = tracer.span("runtime.net_trial");
    return runtime::run_net_trial(w.options);
  }();
  r.solve_s = seconds_since(start);
  std::filesystem::remove_all(w.options.run_dir);

  // The operation succeeds on the trust-table verdict: a completed trial
  // whose answer, if the measured faults leave PCF trusted, is inside the
  // envelope. The answer is rescored here against the exact oracle.
  std::vector<double> answer = report.trial.estimates_by_node(report.nodes);
  maybe_perturb(o, answer);
  r.max_rel_error = max_rel_error(sim::Oracle(ready.scenario.masses), answer);
  if (!report.trial.completed) {
    r.failures.push_back("net trial incomplete: " + std::to_string(report.trial.failures) +
                         " shard(s) lost");
  }
  if (report.trusted && !(r.max_rel_error <= w.options.error_tol)) {
    r.failures.push_back(format_error("trusted PCF max_rel_error", r.max_rel_error,
                                      w.options.error_tol));
  }
  const PerfCounters& perf = report.perf;
  r.datagrams_received = static_cast<double>(perf.datagrams_received);
  r.counters["runtime.datagrams_sent"] = static_cast<double>(perf.datagrams_sent);
  r.counters["runtime.datagrams_received"] = static_cast<double>(perf.datagrams_received);
  r.counters["runtime.loss_rate"] = report.trial.measured_loss_rate();
  r.counters["runtime.frames_rejected"] = static_cast<double>(perf.frames_rejected);
  r.counters["runtime.heartbeats_sent"] = static_cast<double>(perf.heartbeats_sent);
  r.counters["runtime.detector_downs"] = static_cast<double>(perf.detector_downs);
  r.counters["runtime.detector_ups"] = static_cast<double>(perf.detector_ups);
  r.counters["runtime.mailbox_blocked_pushes"] = static_cast<double>(perf.mailbox_blocked_pushes);
  r.counters["runtime.mailbox_rejected_pushes"] =
      static_cast<double>(perf.mailbox_rejected_pushes);
  r.counters["runtime.mailbox_high_watermark"] = static_cast<double>(perf.mailbox_high_watermark);
  r.counters["runtime.restarts"] = static_cast<double>(report.trial.restarts);
  r.counters["support.shards"] = static_cast<double>(w.options.runtime.num_shards);
  return r;
}

// threaded-steps: the in-process mailbox and per-step barrier path.
struct ThreadedSteps {
  std::string spec;
  std::size_t steps = 300;
  double tol = 1e-9;
  runtime::RuntimeConfig config;

  explicit ThreadedSteps(const WorkloadOptions& o)
      : spec(o.tiny ? "regular:1024:6" : "regular:16384:6") {
    config.algorithm = kAlgorithm;
    config.seed = o.seed;
    config.num_threads = std::min<std::size_t>(2, nproc());
    config.mailbox_capacity = 64;
  }
};

struct ThreadedReady {
  Scenario scenario;
  std::unique_ptr<runtime::ThreadedRuntime> runtime;
  double setup_s = 0.0;
};

ThreadedReady threaded_setup(const ThreadedSteps& w, const WorkloadOptions& o, Tracer& tracer) {
  const auto start = Clock::now();
  ThreadedReady ready{make_scenario(w.spec, o.seed, tracer), nullptr, 0.0};
  {
    const auto span = tracer.span("runtime.threaded_build");
    ready.runtime = std::make_unique<runtime::ThreadedRuntime>(ready.scenario.topology,
                                                               ready.scenario.masses, w.config);
  }
  ready.setup_s = seconds_since(start);
  return ready;
}

double threaded_steps_setup(const WorkloadOptions& o, Tracer& tracer) {
  return threaded_setup(ThreadedSteps(o), o, tracer).setup_s;
}

TrialResult threaded_steps_trial(const WorkloadOptions& o, Tracer& tracer) {
  const ThreadedSteps w(o);
  TrialResult r;
  ThreadedReady ready = threaded_setup(w, o, tracer);
  runtime::ThreadedRuntime& rt = *ready.runtime;
  r.setup_s = ready.setup_s;

  const auto start = Clock::now();
  {
    const auto span = tracer.span("runtime.threaded_run");
    rt.run(w.steps);
  }
  r.solve_s = seconds_since(start);

  std::vector<double> answer = rt.estimates();
  maybe_perturb(o, answer);
  r.max_rel_error = max_rel_error(sim::Oracle(ready.scenario.masses), answer);
  if (!(r.max_rel_error <= w.tol)) {
    r.failures.push_back(format_error("max_rel_error", r.max_rel_error, w.tol));
  }
  const PerfCounters& perf = rt.perf();
  r.deliveries = static_cast<double>(rt.messages_delivered());
  r.counters["runtime.threaded_run_s"] = perf.seconds(PerfCounters::Phase::kRun);
  r.counters["runtime.threaded_drain_s"] = perf.seconds(PerfCounters::Phase::kDrain);
  r.counters["runtime.mailbox_blocked_pushes"] = static_cast<double>(perf.mailbox_blocked_pushes);
  r.counters["runtime.mailbox_rejected_pushes"] =
      static_cast<double>(perf.mailbox_rejected_pushes);
  r.counters["runtime.mailbox_high_watermark"] = static_cast<double>(perf.mailbox_high_watermark);
  r.counters["runtime.mailbox_dropped"] = static_cast<double>(perf.mailbox_dropped);
  r.counters["support.shards"] = static_cast<double>(w.config.num_threads);
  return r;
}

constexpr Workload kWorkloads[] = {
    {"cold-scale", true, &cold_scale_setup, &cold_scale_trial},
    {"churn-recover", true, &churn_recover_setup, &churn_recover_trial},
    {"socket-loopback", false, &socket_loopback_setup, &socket_loopback_trial},
    {"threaded-steps", false, &threaded_steps_setup, &threaded_steps_trial},
};

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string_view> workload_names() {
  std::vector<std::string_view> names;
  for (const Workload& w : kWorkloads) names.push_back(w.name);
  return names;
}

}  // namespace pcfbench
