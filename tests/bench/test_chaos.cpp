#include "bench/chaos.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace pcf::bench {
namespace {

TEST(MakeChaosCells, FastGridIsWellFormed) {
  const auto cells = make_chaos_cells(/*fast=*/true);
  ASSERT_FALSE(cells.empty());
  std::set<std::string> names, algorithms, topologies;
  for (const auto& c : cells) {
    EXPECT_TRUE(names.insert(c.name).second) << "duplicate cell " << c.name;
    algorithms.insert(c.algorithm);
    topologies.insert(c.topology);
    EXPECT_GT(c.intensity, 0.0);
    EXPECT_GE(c.trials, 1u);
    EXPECT_GT(c.churn_rounds, 0u);
    EXPECT_GT(c.recovery_max_rounds, c.churn_rounds);
    EXPECT_GT(c.tol, 0.0);
  }
  EXPECT_TRUE(algorithms.count("pcf"));  // the paper's algorithm is always swept
  EXPECT_GE(topologies.size(), 2u);      // at least two topology families
}

TEST(MakeChaosCells, FullGridCoversAllAlgorithmsAndRampsIntensity) {
  const auto cells = make_chaos_cells(/*fast=*/false);
  std::set<std::string> algorithms;
  std::set<double> intensities;
  for (const auto& c : cells) {
    algorithms.insert(c.algorithm);
    intensities.insert(c.intensity);
  }
  EXPECT_EQ(algorithms, (std::set<std::string>{"ps", "pf", "pcf", "fu", "corr", "fumd"}));
  EXPECT_GE(intensities.size(), 3u);  // a ramp, not a single operating point
  EXPECT_GT(cells.size(), make_chaos_cells(true).size());
}

TEST(MakeChaosRestoreCells, GridsAreWellFormed) {
  for (const bool fast : {true, false}) {
    const auto cells = make_chaos_restore_cells(fast);
    ASSERT_FALSE(cells.empty());
    std::set<std::string> names;
    std::set<std::size_t> seed_indices;
    for (const auto& c : cells) {
      EXPECT_TRUE(names.insert(c.name).second) << "duplicate cell " << c.name;
      EXPECT_TRUE(seed_indices.insert(c.seed_index).second) << "shared seed index " << c.name;
      EXPECT_GE(c.trials, 1u);
      EXPECT_GT(c.checkpoint_every, 0u);
      EXPECT_GT(c.kill_round, c.checkpoint_every);
      // A kill on a checkpoint boundary would make the replay segment empty —
      // the race must always pay a real replay.
      EXPECT_NE(c.kill_round % c.checkpoint_every, 0u) << c.name;
      EXPECT_GT(c.max_rounds, c.kill_round);
      EXPECT_GT(c.tol, 0.0);
    }
  }
}

TEST(RunChaos, RestoreFamilyReplaysBitwiseAndConverges) {
  ChaosOptions options;
  options.fast = true;
  options.seed = 1;
  const auto report = run_chaos(options);
  ASSERT_EQ(report.restore_cells.size(), make_chaos_restore_cells(true).size());
  for (const auto& r : report.restore_cells) {
    // The tentpole acceptance bar: every restored replay reproduces the
    // pre-kill fingerprint bitwise.
    EXPECT_EQ(r.fingerprint_matches, r.cell.trials) << r.cell.name;
    EXPECT_EQ(r.restore_converged, r.cell.trials) << r.cell.name;
    EXPECT_EQ(r.intrinsic_converged, r.cell.trials) << r.cell.name;
    EXPECT_GT(r.checkpoint_bytes_full, 0u) << r.cell.name;
    EXPECT_GT(r.checkpoint_bytes_light, 0u) << r.cell.name;
    // Sync blobs: the wire is empty at round boundaries, so light ≤ full.
    EXPECT_LE(r.checkpoint_bytes_light, r.checkpoint_bytes_full) << r.cell.name;
    EXPECT_GT(r.restore_rounds.p50, 0.0) << r.cell.name;
    EXPECT_GT(r.intrinsic_rounds.p50, 0.0) << r.cell.name;
    EXPECT_LE(r.restore_error.max, r.cell.tol) << r.cell.name;
    EXPECT_LE(r.intrinsic_error.max, r.cell.tol) << r.cell.name;
  }
}

TEST(RunChaos, SingleCellTrialRecoversConsensus) {
  // One small cell end to end: after the chaos phase quiets down, the
  // estimates must re-agree within the recovery budget in every trial.
  ChaosOptions options;
  options.fast = true;
  options.seed = 1;
  const auto report = run_chaos(options);
  ASSERT_EQ(report.cells.size(), make_chaos_cells(true).size());
  for (const auto& r : report.cells) {
    EXPECT_EQ(r.nodes, 16u) << r.cell.name;  // fast grid uses 16-node graphs
    EXPECT_EQ(r.consensus, r.cell.trials) << r.cell.name;
    EXPECT_LE(r.survived, r.consensus) << r.cell.name;
    EXPECT_GT(r.recovery_rounds.p50, 0.0) << r.cell.name;
    EXPECT_LT(r.recovery_rounds.max,
              static_cast<double>(r.cell.recovery_max_rounds)) << r.cell.name;
    EXPECT_GE(r.link_heals, 1u) << r.cell.name;  // churn + phase-2 heals fired
    EXPECT_GE(r.rejoins, 1u) << r.cell.name;  // the scripted crash+rejoin fired
    EXPECT_GT(r.messages_duplicated, 0u) << r.cell.name;
  }
}

TEST(ChaosReportToJson, ByteDeterministicPerSeed) {
  ChaosOptions options;
  options.fast = true;
  options.seed = 42;
  const auto a = chaos_report_to_json(run_chaos(options));
  const auto b = chaos_report_to_json(run_chaos(options));
  EXPECT_EQ(a, b);  // byte-identical — the CI contract
  options.seed = 43;
  const auto c = chaos_report_to_json(run_chaos(options));
  EXPECT_NE(a, c);  // the seed actually reaches the trials
}

TEST(ChaosReportToJson, EmitsVersionedSchema) {
  ChaosOptions options;
  options.fast = true;
  options.seed = 1;
  const auto report = run_chaos(options);
  const auto json = chaos_report_to_json(report);
  EXPECT_NE(json.find("\"schema\": \"pcflow-chaos\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"mode\": \"fast\""), std::string::npos);
  EXPECT_NE(json.find("\"cells\": ["), std::string::npos);
  EXPECT_NE(json.find("\"restore_cells\": ["), std::string::npos);
  EXPECT_NE(json.find("\"fingerprint_matches\": "), std::string::npos);
  EXPECT_NE(json.find("\"checkpoint_bytes_full\": "), std::string::npos);
  EXPECT_NE(json.find("\"intrinsic_rounds\": {"), std::string::npos);
  EXPECT_NE(json.find("\"recovery_rounds\": {"), std::string::npos);
  EXPECT_NE(json.find("\"final_error\": {"), std::string::npos);
  EXPECT_NE(json.find("\"survived\": "), std::string::npos);
  // No wall-clock fields may leak in — they would break byte determinism.
  EXPECT_EQ(json.find("wall_seconds"), std::string::npos);
  EXPECT_EQ(json.find("timing"), std::string::npos);
  EXPECT_EQ(json.back(), '\n');
}

}  // namespace
}  // namespace pcf::bench
