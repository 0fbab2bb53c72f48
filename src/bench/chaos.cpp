#include "bench/chaos.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "bench/bench.hpp"
#include "core/reducer.hpp"
#include "net/topology.hpp"
#include "sim/engine_sync.hpp"
#include "sim/reduce.hpp"
#include "support/check.hpp"
#include "support/json.hpp"
#include "support/stats.hpp"

namespace pcf::bench {

namespace {

// Base rates at intensity 1; the ramp scales these linearly (probabilities
// are clamped to stay meaningful at high intensities).
constexpr double kBaseChurnFail = 0.004;  // per link per round
constexpr double kChurnHealRate = 0.05;   // mean 20-round outages
constexpr double kBaseDuplicate = 0.02;   // per delivered packet
constexpr double kBaseReorder = 0.02;     // per delivered packet

struct TrialOutcome {
  bool consensus = false;
  bool survived = false;
  double recovery_rounds = 0.0;
  double final_error = 0.0;
  std::size_t nodes = 0;
  sim::FaultExposure exposure;
  std::uint64_t messages_duplicated = 0;
};

sim::FaultPlan make_chaos_faults(const ChaosCell& cell, const net::Topology& topology) {
  sim::FaultPlan plan;
  plan.churn_fail_prob = std::min(0.2, kBaseChurnFail * cell.intensity);
  plan.churn_heal_rate = kChurnHealRate;
  plan.duplicate_prob = std::min(0.5, kBaseDuplicate * cell.intensity);
  plan.reorder_prob = std::min(0.5, kBaseReorder * cell.intensity);
  const double span = static_cast<double>(cell.churn_rounds);
  // One crash mid-chaos and the rejoin before the phase ends, so recovery
  // starts with every node back up.
  const auto victim = static_cast<net::NodeId>(topology.size() / 2);
  plan.node_crashes.push_back({0.25 * span, victim});
  plan.node_rejoins.push_back({0.60 * span, victim});
  // One failure-detector false positive on a link away from the victim,
  // clearing 20 rounds later ("detected up").
  for (const auto& [a, b] : topology.edges()) {
    if (a != victim && b != victim) {
      plan.false_detects.push_back({0.35 * span, a, b, 20.0});
      break;
    }
  }
  return plan;
}

TrialOutcome run_chaos_trial(const ChaosCell& cell, std::uint64_t seed) {
  // The same scenario as `pcflow bench` and the CLI; engine streams fork
  // from the seed.
  const auto [topology, masses] =
      sim::seeded_scenario(cell.topology, seed, core::Aggregate::kAverage);

  sim::SyncEngineConfig config;
  config.algorithm = core::parse_algorithm(cell.algorithm);
  config.seed = seed;
  config.faults = make_chaos_faults(cell, topology);

  sim::SyncEngine engine(topology, masses, config);

  // Phase 1: chaos.
  engine.run(cell.churn_rounds);

  // Phase 2: recovery. Quiet the probabilistic knobs, heal whatever churn
  // left dead (every node is back up by now), and run until consensus
  // returns — the estimates' relative spread collapsing, which is what
  // "recovered" means when accumulated fault bias shifted the conserved mass.
  sim::FaultPlan& live = engine.mutable_faults();
  live.churn_fail_prob = 0.0;
  live.duplicate_prob = 0.0;
  live.reorder_prob = 0.0;
  for (const auto& [a, b] : engine.dead_links()) engine.heal_link_now(a, b);

  TrialOutcome outcome;
  outcome.recovery_rounds = static_cast<double>(cell.recovery_max_rounds);
  const double scale = std::max(1.0, std::fabs(engine.oracle().target()));
  for (std::size_t r = 0; r < cell.recovery_max_rounds; ++r) {
    engine.step();
    const std::vector<double> estimates = engine.estimates();
    const auto [lo, hi] = std::minmax_element(estimates.begin(), estimates.end());
    if (*hi - *lo <= 1e-9 * scale) {
      outcome.consensus = true;
      outcome.recovery_rounds = static_cast<double>(r + 1);
      break;
    }
  }
  outcome.final_error = engine.max_error();
  outcome.survived = outcome.consensus && outcome.final_error <= cell.tol;
  outcome.nodes = topology.size();
  outcome.exposure = engine.fault_exposure();
  outcome.messages_duplicated = engine.stats().messages_duplicated;
  return outcome;
}

struct RestoreTrialOutcome {
  bool fingerprint_match = false;
  bool restore_converged = false;
  bool intrinsic_converged = false;
  double restore_rounds = 0.0;
  double intrinsic_rounds = 0.0;
  double restore_error = 0.0;
  double intrinsic_error = 0.0;
  std::size_t nodes = 0;
  std::uint64_t bytes_full = 0;
  std::uint64_t bytes_light = 0;
};

sim::FaultPlan make_restore_faults(const ChaosRestoreCell& cell, const net::Topology& topology) {
  // Scheduled events only, all done before the kill: the probabilistic knobs
  // stay zero, so the pre-kill trajectory is fixed by the schedule and the
  // checkpoint cursors land mid-schedule (the interesting case for restore).
  sim::FaultPlan plan;
  const double span = static_cast<double>(cell.kill_round);
  const auto victim = static_cast<net::NodeId>(topology.size() / 2);
  plan.node_crashes.push_back({0.20 * span, victim});
  plan.node_rejoins.push_back({0.40 * span, victim});
  std::size_t picked = 0;
  for (const auto& [a, b] : topology.edges()) {
    if (a == victim || b == victim) continue;
    if (picked == 0) {
      plan.link_failures.push_back({0.15 * span, a, b});
      plan.link_heals.push_back({0.35 * span, a, b});
    } else if (picked == 1) {
      plan.false_detects.push_back({0.25 * span, a, b, 5.0});
    }
    if (++picked == 2) break;
  }
  return plan;
}

RestoreTrialOutcome run_restore_trial(const ChaosRestoreCell& cell, std::uint64_t seed) {
  const auto [topology, masses] =
      sim::seeded_scenario(cell.topology, seed, core::Aggregate::kAverage);

  sim::SyncEngineConfig config;
  config.algorithm = core::parse_algorithm(cell.algorithm);
  config.seed = seed;
  config.faults = make_restore_faults(cell, topology);

  RestoreTrialOutcome out;
  out.nodes = topology.size();

  // The doomed primary: checkpoints every `checkpoint_every` rounds, dies at
  // `kill_round` (everything not in the last blob is lost with the process).
  sim::SyncEngine primary(topology, masses, config);
  std::string last_checkpoint = primary.save_checkpoint(sim::CheckpointMode::kFull);
  std::size_t checkpoint_round = 0;
  out.bytes_full = last_checkpoint.size();
  out.bytes_light = primary.save_checkpoint(sim::CheckpointMode::kLightweight).size();
  for (std::size_t r = 0; r < cell.kill_round; ++r) {
    primary.step();
    if (primary.round() % cell.checkpoint_every == 0) {
      last_checkpoint = primary.save_checkpoint(sim::CheckpointMode::kFull);
      checkpoint_round = primary.round();
      out.bytes_full = last_checkpoint.size();
      out.bytes_light = primary.save_checkpoint(sim::CheckpointMode::kLightweight).size();
    }
  }
  const std::uint64_t kill_fingerprint = primary.state_fingerprint();

  // Contender 1 (restore): fresh engine + last checkpoint, replay to the kill
  // point — the replay must reproduce the pre-kill state bitwise, which is
  // the whole-layer correctness probe — then race to the accuracy target.
  sim::SyncEngine restored(topology, masses, config);
  restored.restore(last_checkpoint);
  restored.run(cell.kill_round - checkpoint_round);
  out.fingerprint_match = restored.state_fingerprint() == kill_fingerprint;
  out.restore_converged = restored.run_until_error(cell.tol, cell.max_rounds).reached_target;
  out.restore_rounds = static_cast<double>(restored.round() - checkpoint_round);
  out.restore_error = restored.max_error();

  // Contender 2 (intrinsic): the paper's zero-checkpoint story. No blob
  // survived the kill, so restart cold from the construction inputs (the
  // fault schedule died with the process) and let the algorithm reconverge
  // from scratch.
  sim::SyncEngineConfig cold = config;
  cold.faults = sim::FaultPlan{};
  sim::SyncEngine intrinsic(topology, masses, cold);
  out.intrinsic_converged = intrinsic.run_until_error(cell.tol, cell.max_rounds).reached_target;
  out.intrinsic_rounds = static_cast<double>(intrinsic.round());
  out.intrinsic_error = intrinsic.max_error();
  return out;
}

QuantileSummary summarize(std::vector<double> samples) {
  QuantileSummary q;
  if (samples.empty()) return q;
  std::sort(samples.begin(), samples.end());
  q.p50 = quantile(samples, 0.5);
  q.p90 = quantile(samples, 0.9);
  q.max = samples.back();
  return q;
}

std::string format_intensity(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "x%g", v);
  return buf;
}

void emit_quantiles(JsonWriter& json, std::string_view name, const QuantileSummary& q) {
  json.key(name);
  json.begin_object();
  json.field("p50", q.p50);
  json.field("p90", q.p90);
  json.field("max", q.max);
  json.end_object();
}

}  // namespace

std::vector<ChaosCell> make_chaos_cells(bool fast) {
  std::vector<ChaosCell> cells;
  const auto add = [&cells](const char* algorithm, const char* topology, double intensity,
                            std::size_t trials, std::size_t churn_rounds,
                            std::size_t recovery_max_rounds) {
    ChaosCell c;
    c.algorithm = algorithm;
    c.topology = topology;
    c.intensity = intensity;
    c.trials = trials;
    c.churn_rounds = churn_rounds;
    c.recovery_max_rounds = recovery_max_rounds;
    c.name = c.algorithm + "/" + c.topology + "/" + format_intensity(intensity);
    cells.push_back(std::move(c));
  };

  if (fast) {
    // CI smoke: the paper's algorithm plus one baseline, two topology
    // families, a short ramp — small enough for a sub-minute Release run.
    for (const char* topo : {"ring:16", "hypercube:4"}) {
      for (const double intensity : {1.0, 2.0}) {
        add("pcf", topo, intensity, 2, 150, 1500);
        add("pf", topo, intensity, 2, 150, 1500);
        // Roster: the tree allreduce's churn cells chart the paper's
        // trade-off (exclusions fragment the schedule; recovery needs the
        // healed tree to re-propagate), the hybrid rides the gossip cells.
        add("corr", topo, intensity, 2, 150, 1500);
        add("fumd", topo, intensity, 2, 150, 1500);
      }
    }
    return cells;
  }

  // The full ramp: every algorithm (push-sum's casualties are the point —
  // it has no fault story), three topology families, intensities 0.5–4.
  for (const char* algorithm : {"ps", "pf", "pcf", "fu", "corr", "fumd"}) {
    for (const char* topo : {"ring:32", "torus2d:6x6", "hypercube:5"}) {
      for (const double intensity : {0.5, 1.0, 2.0, 4.0}) {
        add(algorithm, topo, intensity, 4, 400, 6000);
      }
    }
  }
  return cells;
}

std::vector<ChaosRestoreCell> make_chaos_restore_cells(bool fast) {
  std::vector<ChaosRestoreCell> cells;
  const auto add = [&cells](const char* algorithm, const char* topology, std::size_t seed_index,
                            std::size_t trials, std::size_t kill_round,
                            std::size_t checkpoint_every, std::size_t max_rounds) {
    ChaosRestoreCell c;
    c.algorithm = algorithm;
    c.topology = topology;
    c.seed_index = seed_index;
    c.trials = trials;
    c.kill_round = kill_round;
    c.checkpoint_every = checkpoint_every;
    c.max_rounds = max_rounds;
    c.name = std::string("restore/") + algorithm + "/" + topology + "/arena";
    cells.push_back(std::move(c));
  };

  // kill_round is deliberately NOT a multiple of checkpoint_every: the
  // restore contender always pays a real replay segment. The seed indices
  // skip the slots of the retired per-object layout's reference cells.
  if (fast) {
    add("pcf", "ring:16", 1, 2, 70, 20, 3000);
    add("pf", "hypercube:4", 2, 2, 70, 20, 3000);
    add("corr", "ring:16", 3, 2, 70, 20, 3000);
    add("fumd", "hypercube:4", 4, 2, 70, 20, 3000);
    return cells;
  }
  std::size_t seed_index = 1;
  for (const char* algorithm : {"ps", "pf", "pcf", "fu", "corr", "fumd"}) {
    for (const char* topo : {"ring:32", "hypercube:5"}) {
      add(algorithm, topo, seed_index, 3, 130, 40, 6000);
      seed_index += 2;
    }
  }
  return cells;
}

ChaosReport run_chaos(const ChaosOptions& options) {
  ChaosReport report;
  report.options = options;
  const std::vector<ChaosCell> cells = make_chaos_cells(options.fast);
  report.cells.reserve(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const ChaosCell& cell = cells[c];
    ChaosCellResult result;
    result.cell = cell;
    std::vector<double> recovery;
    std::vector<double> error;
    for (std::size_t t = 0; t < cell.trials; ++t) {
      // Mix the cell index into the suite seed so cells are independent.
      const std::uint64_t seed = trial_seed(options.seed + 0x10001ULL * (c + 1), t);
      const TrialOutcome outcome = run_chaos_trial(cell, seed);
      result.nodes = outcome.nodes;
      if (outcome.consensus) ++result.consensus;
      if (outcome.survived) ++result.survived;
      recovery.push_back(outcome.recovery_rounds);
      error.push_back(outcome.final_error);
      result.link_failures += outcome.exposure.link_failures;
      result.link_heals += outcome.exposure.link_heals;
      result.rejoins += outcome.exposure.rejoins;
      result.false_detects += outcome.exposure.false_detects;
      result.messages_duplicated += outcome.messages_duplicated;
    }
    result.recovery_rounds = summarize(std::move(recovery));
    result.final_error = summarize(std::move(error));
    report.cells.push_back(std::move(result));
  }

  const std::vector<ChaosRestoreCell> restore_cells = make_chaos_restore_cells(options.fast);
  report.restore_cells.reserve(restore_cells.size());
  for (std::size_t c = 0; c < restore_cells.size(); ++c) {
    const ChaosRestoreCell& cell = restore_cells[c];
    ChaosRestoreResult result;
    result.cell = cell;
    std::vector<double> restore_rounds, restore_error, intrinsic_rounds, intrinsic_error;
    for (std::size_t t = 0; t < cell.trials; ++t) {
      // A different cell-mixing constant than the churn sweep, so the two
      // families stay independent per suite seed.
      const std::uint64_t seed = trial_seed(options.seed + 0x20002ULL * (cell.seed_index + 1), t);
      const RestoreTrialOutcome outcome = run_restore_trial(cell, seed);
      result.nodes = outcome.nodes;
      if (outcome.fingerprint_match) ++result.fingerprint_matches;
      if (outcome.restore_converged) ++result.restore_converged;
      if (outcome.intrinsic_converged) ++result.intrinsic_converged;
      result.checkpoint_bytes_full = std::max(result.checkpoint_bytes_full, outcome.bytes_full);
      result.checkpoint_bytes_light = std::max(result.checkpoint_bytes_light, outcome.bytes_light);
      restore_rounds.push_back(outcome.restore_rounds);
      restore_error.push_back(outcome.restore_error);
      intrinsic_rounds.push_back(outcome.intrinsic_rounds);
      intrinsic_error.push_back(outcome.intrinsic_error);
    }
    result.restore_rounds = summarize(std::move(restore_rounds));
    result.restore_error = summarize(std::move(restore_error));
    result.intrinsic_rounds = summarize(std::move(intrinsic_rounds));
    result.intrinsic_error = summarize(std::move(intrinsic_error));
    report.restore_cells.push_back(std::move(result));
  }
  return report;
}

std::string chaos_report_to_json(const ChaosReport& report) {
  JsonWriter json;
  json.begin_object();
  json.field("schema", "pcflow-chaos");
  // v2 adds the checkpoint-vs-intrinsic race family (restore_cells). v3 grows
  // the algorithm enum: corr (correction allreduce) and fumd (FU/MD hybrid)
  // cells in both families.
  json.field("schema_version", std::int64_t{3});
  json.field("mode", report.options.fast ? "fast" : "full");
  json.field("seed", report.options.seed);
  // No wall-clock fields anywhere: a chaos report is byte-deterministic per
  // seed by construction (CI compares two runs directly).
  json.field("cell_count", static_cast<std::uint64_t>(report.cells.size()));
  json.key("cells");
  json.begin_array();
  for (const ChaosCellResult& r : report.cells) {
    json.begin_object();
    json.field("name", r.cell.name);
    json.field("algorithm", r.cell.algorithm);
    json.field("topology", r.cell.topology);
    json.field("intensity", r.cell.intensity);
    json.field("churn_fail_prob", std::min(0.2, kBaseChurnFail * r.cell.intensity));
    json.field("churn_heal_rate", kChurnHealRate);
    json.field("duplicate_prob", std::min(0.5, kBaseDuplicate * r.cell.intensity));
    json.field("reorder_prob", std::min(0.5, kBaseReorder * r.cell.intensity));
    json.field("nodes", static_cast<std::uint64_t>(r.nodes));
    json.field("trials", static_cast<std::uint64_t>(r.cell.trials));
    json.field("churn_rounds", static_cast<std::uint64_t>(r.cell.churn_rounds));
    json.field("recovery_max_rounds", static_cast<std::uint64_t>(r.cell.recovery_max_rounds));
    json.field("tol", r.cell.tol);
    json.field("consensus", static_cast<std::uint64_t>(r.consensus));
    json.field("survived", static_cast<std::uint64_t>(r.survived));
    emit_quantiles(json, "recovery_rounds", r.recovery_rounds);
    emit_quantiles(json, "final_error", r.final_error);
    json.field("link_failures", r.link_failures);
    json.field("link_heals", r.link_heals);
    json.field("rejoins", r.rejoins);
    json.field("false_detects", r.false_detects);
    json.field("messages_duplicated", r.messages_duplicated);
    json.end_object();
  }
  json.end_array();
  json.field("restore_cell_count", static_cast<std::uint64_t>(report.restore_cells.size()));
  json.key("restore_cells");
  json.begin_array();
  for (const ChaosRestoreResult& r : report.restore_cells) {
    json.begin_object();
    json.field("name", r.cell.name);
    json.field("algorithm", r.cell.algorithm);
    json.field("topology", r.cell.topology);
    json.field("engine", "arena");  // schema v3 field; one state layout remains
    json.field("nodes", static_cast<std::uint64_t>(r.nodes));
    json.field("trials", static_cast<std::uint64_t>(r.cell.trials));
    json.field("kill_round", static_cast<std::uint64_t>(r.cell.kill_round));
    json.field("checkpoint_every", static_cast<std::uint64_t>(r.cell.checkpoint_every));
    json.field("max_rounds", static_cast<std::uint64_t>(r.cell.max_rounds));
    json.field("tol", r.cell.tol);
    json.field("fingerprint_matches", static_cast<std::uint64_t>(r.fingerprint_matches));
    json.field("restore_converged", static_cast<std::uint64_t>(r.restore_converged));
    json.field("intrinsic_converged", static_cast<std::uint64_t>(r.intrinsic_converged));
    json.field("checkpoint_bytes_full", r.checkpoint_bytes_full);
    json.field("checkpoint_bytes_light", r.checkpoint_bytes_light);
    emit_quantiles(json, "restore_rounds", r.restore_rounds);
    emit_quantiles(json, "restore_error", r.restore_error);
    emit_quantiles(json, "intrinsic_rounds", r.intrinsic_rounds);
    emit_quantiles(json, "intrinsic_error", r.intrinsic_error);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str() + "\n";
}

}  // namespace pcf::bench
