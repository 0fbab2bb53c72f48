#include "bench/bench.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "support/check.hpp"

namespace pcf::bench {
namespace {

TEST(TrialSeed, DeterministicAndDistinct) {
  EXPECT_EQ(trial_seed(1, 0), trial_seed(1, 0));
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < 256; ++i) seeds.insert(trial_seed(42, i));
  EXPECT_EQ(seeds.size(), 256u);  // no collisions across trial indices
  EXPECT_NE(trial_seed(1, 0), trial_seed(2, 0));  // suite seed matters
}

TEST(MakeSuite, FastSuiteCoversAllAlgorithmsAndFaults) {
  const auto suite = make_suite("fast");
  EXPECT_GE(suite.size(), 6u);  // the ISSUE floor for `pcflow bench --fast`
  std::set<std::string> algorithms, profiles, names;
  for (const auto& s : suite) {
    algorithms.insert(s.algorithm);
    profiles.insert(s.fault_profile);
    EXPECT_TRUE(names.insert(s.name).second) << "duplicate scenario " << s.name;
    EXPECT_GE(s.trials, 1u);
    EXPECT_GT(s.max_rounds, 0u);
    EXPECT_GT(s.tol, 0.0);
  }
  EXPECT_EQ(algorithms, (std::set<std::string>{"ps", "pf", "pcf", "fu", "corr", "fumd"}));
  EXPECT_TRUE(profiles.count("none"));
  EXPECT_TRUE(profiles.count("loss"));
  EXPECT_TRUE(profiles.count("crash"));
}

TEST(MakeSuite, StandardSuiteIsASuperset) {
  const auto fast = make_suite("fast");
  const auto standard = make_suite("standard");
  EXPECT_GT(standard.size(), fast.size());
}

TEST(MakeSuite, UnknownSuiteIsCheckedIllegal) {
  EXPECT_THROW(make_suite("warp-speed"), ContractViolation);
}

TEST(RunBench, ParallelRunnerIsBitwiseIdenticalToSerial) {
  // The core determinism contract: with timing nulled out, the report must be
  // byte-identical no matter how many workers ran the trials.
  BenchOptions serial;
  serial.suite = "fast";
  serial.seed = 7;
  serial.threads = 1;
  serial.include_timing = false;
  BenchOptions parallel = serial;
  parallel.threads = 3;
  const auto a = report_to_json(run_bench(serial));
  const auto b = report_to_json(run_bench(parallel));
  EXPECT_EQ(a, b);
}

TEST(MakeSuite, ScaleSuitesUseTheArenaEngine) {
  for (const char* name : {"scale", "scale-fast"}) {
    const auto suite = make_suite(name);
    EXPECT_GE(suite.size(), 5u) << name;
    std::size_t sharded_cells = 0;
    for (const auto& s : suite) {
      EXPECT_GT(s.fixed_rounds, 0u) << name << "/" << s.name;
      if (s.shards != 1) ++sharded_cells;
    }
    EXPECT_GT(sharded_cells, 0u) << name;
  }
  // The baseline suite reaches 10^6 nodes (torus2d:1000x1000).
  const auto scale = make_suite("scale");
  const bool has_million = std::any_of(scale.begin(), scale.end(), [](const Scenario& s) {
    return s.topology == "torus2d:1000x1000";
  });
  EXPECT_TRUE(has_million);
}

TEST(RunBench, ScaleFastIsBitwiseIdenticalAcrossRunnerThreads) {
  // The scale cut must satisfy the same determinism contract as "fast":
  // byte-identical JSON regardless of runner worker count — which also pins
  // that the sharded arena cells (shards > 1) produce thread-independent
  // counters and errors.
  BenchOptions serial;
  serial.suite = "scale-fast";
  serial.seed = 11;
  serial.threads = 1;
  serial.include_timing = false;
  BenchOptions parallel = serial;
  parallel.threads = 4;
  const auto a = report_to_json(run_bench(serial));
  const auto b = report_to_json(run_bench(parallel));
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"engine\": \"arena\""), std::string::npos);
}

TEST(RunBench, FaultFreeFastScenariosConverge) {
  BenchOptions options;
  options.suite = "fast";
  options.seed = 1;
  options.include_timing = false;
  const auto report = run_bench(options);
  EXPECT_EQ(report.scenarios.size(), make_suite("fast").size());
  for (const auto& r : report.scenarios) {
    EXPECT_EQ(r.nodes, 16u) << r.scenario.name;  // fast suite uses 16-node graphs
    EXPECT_GT(r.deliveries, 0u) << r.scenario.name;
    EXPECT_GT(r.messages_sent, 0u) << r.scenario.name;
    if (r.scenario.fault_profile == "none") {
      EXPECT_EQ(r.converged_trials, r.scenario.trials) << r.scenario.name;
      EXPECT_LT(r.final_max_error.max(), r.scenario.tol) << r.scenario.name;
    }
  }
}

TEST(ReportToJson, EmitsVersionedSchemaWithoutExecutionParameters) {
  BenchOptions options;
  options.suite = "fast";
  options.seed = 3;
  options.threads = 2;
  options.include_timing = false;
  const auto json = report_to_json(run_bench(options));
  EXPECT_NE(json.find("\"schema\": \"pcflow-bench\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\": 3"), std::string::npos);
  // v3: the algorithm enum grew corr and fumd (roster cells below).
  EXPECT_NE(json.find("\"algorithm\": \"corr\""), std::string::npos);
  EXPECT_NE(json.find("\"algorithm\": \"fumd\""), std::string::npos);
  // v2 additions: the engine/shard/delivery cell parameters are part of the
  // scenario identity (CI gates diff on them). The arena is the one engine.
  EXPECT_NE(json.find("\"engine\": \"arena\""), std::string::npos);
  EXPECT_EQ(json.find("\"engine\": \"legacy\""), std::string::npos);
  EXPECT_NE(json.find("\"delivery\": \"sequential\""), std::string::npos);
  EXPECT_NE(json.find("\"shards\": "), std::string::npos);
  EXPECT_NE(json.find("\"fixed_rounds\": "), std::string::npos);
  EXPECT_NE(json.find("\"suite\": \"fast\""), std::string::npos);
  EXPECT_NE(json.find("\"seed\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"scenarios\": ["), std::string::npos);
  EXPECT_NE(json.find("\"rounds\": {"), std::string::npos);
  EXPECT_NE(json.find("\"doubles_on_wire\": "), std::string::npos);
  // Execution parameters (worker count) must not leak into the document —
  // they would break the byte-compare determinism contract.
  EXPECT_EQ(json.find("\"threads\""), std::string::npos);
  // With timing disabled every timing block is the null literal.
  EXPECT_NE(json.find("\"timing\": null"), std::string::npos);
  EXPECT_EQ(json.find("wall_seconds"), std::string::npos);
  EXPECT_EQ(json.back(), '\n');
}

TEST(ReportToJson, TimingBlockPresentWhenEnabled) {
  BenchOptions options;
  options.suite = "fast";
  options.include_timing = true;
  const auto json = report_to_json(run_bench(options));
  EXPECT_EQ(json.find("\"timing\": null"), std::string::npos);
  EXPECT_NE(json.find("\"wall_seconds\": "), std::string::npos);
  EXPECT_NE(json.find("\"phase_seconds\": {"), std::string::npos);
  EXPECT_NE(json.find("\"rounds_per_sec\": "), std::string::npos);
  EXPECT_NE(json.find("\"deliveries_per_sec\": "), std::string::npos);
}

}  // namespace
}  // namespace pcf::bench
