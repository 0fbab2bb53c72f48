// Differential oracle harness: the same seeded scenario replayed through the
// full algorithm roster, cross-checked against each other and against the
// oracle's exact reference (see src/sim/differential.hpp). The matrix here is
// the acceptance bar: every algorithm × topology × fault-class combination
// must agree exactly where the paper says it must.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>

#include "sim/differential.hpp"
#include "sim/engine_sync.hpp"
#include "sim/fault_spec.hpp"
#include "sim/reduce.hpp"
#include "test_util.hpp"

namespace pcf {
namespace {

using core::Algorithm;
using sim::DifferentialConfig;
using sim::DifferentialResult;
using sim::DifferentialScenario;

std::string join(const std::vector<std::string>& lines) {
  std::ostringstream os;
  for (const auto& line : lines) os << "\n  " << line;
  return os.str();
}

// The three fault classes of the acceptance matrix. Link failures are
// scheduled AFTER the slowest topology has numerically converged — the paper's
// exactness claim ("failures cause no fall-back") is about failures of a
// converged flow network; an early failure during a PCF cancellation handshake
// may legitimately bias the result (the two-generals window, see
// push_cancel_flow.cpp) and is covered by the bounded-error sweeps instead.
enum class FaultClass { kNone, kLoss, kLateLinkFailure };

DifferentialScenario make_scenario(const std::string& topology_spec, FaultClass fault_class,
                                   double failure_time) {
  DifferentialScenario scenario;
  scenario.topology_spec = topology_spec;
  scenario.seed = 11;
  scenario.max_rounds = 20000;
  switch (fault_class) {
    case FaultClass::kNone:
      scenario.name = "nofault";
      break;
    case FaultClass::kLoss:
      scenario.name = "loss";
      scenario.faults.message_loss_prob = 0.1;
      break;
    case FaultClass::kLateLinkFailure:
      scenario.name = "linkfail";
      scenario.faults.link_failures.push_back({failure_time, 0, 1});
      break;
  }
  return scenario;
}

struct MatrixCase {
  std::string topology;
  double failure_time;  // late enough that the flow network has converged
};

// Without this gtest prints the raw object bytes, which include the string's
// heap pointer, so the listed test names would change from run to run.
void PrintTo(const MatrixCase& matrix_case, std::ostream* os) {
  *os << matrix_case.topology << " failure_time=" << matrix_case.failure_time;
}

class DifferentialMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(DifferentialMatrix, NoFault) {
  const auto result = run_differential(make_scenario(GetParam().topology, FaultClass::kNone, 0));
  EXPECT_FALSE(result.diverged()) << join(result.divergences);
  ASSERT_EQ(result.outcomes.size(), 6u);  // the full roster replays by default
  for (const auto& outcome : result.outcomes) {
    EXPECT_TRUE(outcome.trusted);  // nothing injected: even push-sum is exact
    EXPECT_TRUE(outcome.converged);
  }
}

TEST_P(DifferentialMatrix, MessageLoss) {
  const auto result = run_differential(make_scenario(GetParam().topology, FaultClass::kLoss, 0));
  EXPECT_FALSE(result.diverged()) << join(result.divergences);
  for (const auto& outcome : result.outcomes) {
    // Push-sum loses mass with every dropped packet; the flow algorithms heal.
    EXPECT_EQ(outcome.trusted, outcome.algorithm != Algorithm::kPushSum);
    if (outcome.trusted) {
      EXPECT_TRUE(outcome.converged);
    }
  }
}

TEST_P(DifferentialMatrix, LateLinkFailure) {
  const auto result = run_differential(
      make_scenario(GetParam().topology, FaultClass::kLateLinkFailure, GetParam().failure_time));
  EXPECT_FALSE(result.diverged()) << join(result.divergences);
  for (const auto& outcome : result.outcomes) {
    // Mass-conserving flow algorithms ride out the cut; push-sum loses its
    // in-flight share, and an exclusion can orphan a correction subtree
    // (fragment roots honestly report fragment aggregates) — the paper's
    // trade-off, encoded as "untrusted under exclusions".
    EXPECT_EQ(outcome.trusted, outcome.algorithm != Algorithm::kPushSum &&
                                   outcome.algorithm != Algorithm::kCorrectionAllreduce);
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, DifferentialMatrix,
                         ::testing::Values(MatrixCase{"hypercube:4", 500},
                                           MatrixCase{"grid:4x5", 1500},
                                           MatrixCase{"ring:16", 4000}),
                         [](const auto& param_info) {
                           std::string name = param_info.param.topology;
                           for (char& c : name) {
                             if (c == ':' || c == 'x') c = '_';
                           }
                           return name;
                         });

TEST(Differential, IsDeterministic) {
  const auto scenario = make_scenario("hypercube:4", FaultClass::kLoss, 0);
  const auto first = run_differential(scenario);
  const auto second = run_differential(scenario);
  ASSERT_EQ(first.outcomes.size(), second.outcomes.size());
  for (std::size_t i = 0; i < first.outcomes.size(); ++i) {
    EXPECT_EQ(first.outcomes[i].rounds, second.outcomes[i].rounds);
    // Bitwise equality: the whole replay (schedule, faults, arithmetic) is a
    // pure function of the seed.
    EXPECT_EQ(first.outcomes[i].max_error, second.outcomes[i].max_error);
    EXPECT_EQ(first.outcomes[i].consensus, second.outcomes[i].consensus);
  }
}

TEST(Differential, TrustTableMatchesThePaper) {
  sim::FaultPlan clean;
  EXPECT_TRUE(algorithm_trusted(Algorithm::kPushSum, clean));
  EXPECT_TRUE(algorithm_trusted(Algorithm::kPushCancelFlow, clean));

  sim::FaultPlan lossy;
  lossy.message_loss_prob = 0.2;
  EXPECT_FALSE(algorithm_trusted(Algorithm::kPushSum, lossy));
  EXPECT_TRUE(algorithm_trusted(Algorithm::kPushFlow, lossy));
  EXPECT_TRUE(algorithm_trusted(Algorithm::kPushCancelFlow, lossy));
  EXPECT_TRUE(algorithm_trusted(Algorithm::kFlowUpdating, lossy));

  sim::FaultPlan corrupting;
  corrupting.bit_flip_prob = 1e-3;
  for (const auto algorithm :
       {Algorithm::kPushSum, Algorithm::kPushFlow, Algorithm::kPushCancelFlow,
        Algorithm::kFlowUpdating, Algorithm::kCorrectionAllreduce, Algorithm::kFuMassHybrid}) {
    EXPECT_FALSE(algorithm_trusted(algorithm, corrupting));
  }
}

TEST(Differential, RosterTrustTableEncodesTheTradeOff) {
  // The two roster additions split exactly along the paper's axis:
  // correction allreduce is EXACT under message-level faults (loss,
  // duplication, reordering, even live data updates) but fragments under any
  // exclusion; the FU/MD hybrid inherits FU's flow-discipline trust.
  sim::FaultPlan clean;
  EXPECT_TRUE(algorithm_trusted(Algorithm::kCorrectionAllreduce, clean));
  EXPECT_TRUE(algorithm_trusted(Algorithm::kFuMassHybrid, clean));

  sim::FaultPlan messaging;
  messaging.message_loss_prob = 0.2;
  messaging.duplicate_prob = 0.1;
  messaging.reorder_prob = 0.1;
  messaging.data_updates.push_back({10.0, 0, core::Mass::scalar(1.0, 0.0)});
  EXPECT_TRUE(algorithm_trusted(Algorithm::kCorrectionAllreduce, messaging));
  EXPECT_TRUE(algorithm_trusted(Algorithm::kFuMassHybrid, messaging));

  sim::FaultPlan cut;
  cut.link_failures.push_back({100.0, 0, 1});
  EXPECT_FALSE(algorithm_trusted(Algorithm::kCorrectionAllreduce, cut));
  EXPECT_TRUE(algorithm_trusted(Algorithm::kFuMassHybrid, cut));

  sim::FaultPlan crash;
  crash.node_crashes.push_back({100.0, 3});
  EXPECT_FALSE(algorithm_trusted(Algorithm::kCorrectionAllreduce, crash));
  EXPECT_TRUE(algorithm_trusted(Algorithm::kFuMassHybrid, crash));

  sim::FaultPlan flapping;
  flapping.false_detects.push_back({100.0, 0, 1, 10.0});
  EXPECT_FALSE(algorithm_trusted(Algorithm::kCorrectionAllreduce, flapping));
  EXPECT_TRUE(algorithm_trusted(Algorithm::kFuMassHybrid, flapping));

  sim::FaultPlan churning;
  churning.churn_fail_prob = 0.01;
  churning.churn_heal_rate = 0.2;
  EXPECT_FALSE(algorithm_trusted(Algorithm::kCorrectionAllreduce, churning));
  EXPECT_TRUE(algorithm_trusted(Algorithm::kFuMassHybrid, churning));
}

TEST(Differential, ReproCommandRoundTripsThroughTheFaultSpec) {
  DifferentialScenario scenario = make_scenario("ring:16", FaultClass::kLateLinkFailure, 4000);
  scenario.faults.node_crashes.push_back({6000.0, 7});
  scenario.faults.data_updates.push_back({5000.0, 3, core::Mass::scalar(2.5, 0.0)});
  scenario.faults.message_loss_prob = 0.05;

  const std::string command = repro_command(scenario, Algorithm::kPushCancelFlow);
  EXPECT_NE(command.find("--topology=ring:16"), std::string::npos) << command;
  EXPECT_NE(command.find("--algorithm=pcf"), std::string::npos) << command;
  EXPECT_NE(command.find("--seed=11"), std::string::npos) << command;
  EXPECT_NE(command.find("--loss=0.05"), std::string::npos) << command;
  EXPECT_NE(command.find("--link-fail=4000:0:1"), std::string::npos) << command;
  EXPECT_NE(command.find("--crash=6000:7"), std::string::npos) << command;
  EXPECT_NE(command.find("--update=5000:3:2.5"), std::string::npos) << command;

  // The spec strings embedded in the command parse back to the same plan.
  const auto plan = sim::parse_fault_spec(sim::format_link_failures(scenario.faults.link_failures),
                                          sim::format_node_crashes(scenario.faults.node_crashes),
                                          sim::format_data_updates(scenario.faults.data_updates));
  ASSERT_EQ(plan.link_failures.size(), 1u);
  EXPECT_EQ(plan.link_failures[0].time, 4000.0);
  EXPECT_EQ(plan.link_failures[0].a, 0u);
  EXPECT_EQ(plan.link_failures[0].b, 1u);
  ASSERT_EQ(plan.node_crashes.size(), 1u);
  EXPECT_EQ(plan.node_crashes[0].node, 7u);
  ASSERT_EQ(plan.data_updates.size(), 1u);
  EXPECT_EQ(plan.data_updates[0].delta.s[0], 2.5);
}

// Forcing a divergence (a round cap no algorithm can meet) must produce the
// repro CSV with replayable pcflow command lines.
TEST(Differential, DumpsAReproFileOnDivergence) {
  DifferentialScenario scenario;
  scenario.name = "forced_timeout";
  scenario.topology_spec = "ring:16";
  scenario.seed = 11;
  scenario.max_rounds = 40;  // far below ring:16 convergence time

  DifferentialConfig config;
  config.repro_dir = ::testing::TempDir();
  const auto result = run_differential(scenario, config);
  ASSERT_TRUE(result.diverged());
  ASSERT_FALSE(result.repro_path.empty());

  std::ifstream in(result.repro_path);
  ASSERT_TRUE(in.is_open()) << result.repro_path;
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_NE(content.str().find("repro_pcf"), std::string::npos);
  EXPECT_NE(content.str().find("--topology=ring:16"), std::string::npos);
  EXPECT_NE(content.str().find("divergence"), std::string::npos);
}

// With a node crash each algorithm retargets from its own survivors, so only
// per-algorithm convergence is checkable — and it must still hold.
TEST(Differential, SurvivorsReconvergeAfterACrash) {
  DifferentialScenario scenario;
  scenario.name = "crash";
  scenario.topology_spec = "hypercube:4";
  scenario.seed = 11;
  scenario.max_rounds = 20000;
  scenario.faults.node_crashes.push_back({500.0, 3});

  const auto result = run_differential(scenario);
  EXPECT_FALSE(result.diverged()) << join(result.divergences);
  for (const auto& outcome : result.outcomes) {
    if (outcome.trusted) {
      EXPECT_TRUE(outcome.converged);
    }
  }
}

// ----------------------------------------------------- fault-plan corpus

/// A corpus of named fault plans spanning every fault class the engines
/// model. Each is replayed through the FULL algorithm roster in BOTH delivery
/// modes; the replay must be a pure function of the seed (bitwise-identical
/// estimates across repeats) with the invariant checkers armed throughout.
std::vector<std::pair<std::string, sim::FaultPlan>> fault_plan_corpus() {
  std::vector<std::pair<std::string, sim::FaultPlan>> corpus;
  corpus.emplace_back("clean", sim::FaultPlan{});
  {
    sim::FaultPlan p;
    p.message_loss_prob = 0.1;
    p.duplicate_prob = 0.1;
    p.reorder_prob = 0.1;
    corpus.emplace_back("noisy_delivery", p);
  }
  {
    sim::FaultPlan p;
    p.link_failures.push_back({20.0, 0, 1});
    p.link_heals.push_back({60.0, 0, 1});
    p.false_detects.push_back({40.0, 2, 3, 10.0});
    p.detection_delay = 1.0;
    corpus.emplace_back("lifecycle_links", p);
  }
  {
    sim::FaultPlan p;
    p.node_crashes.push_back({25.0, 5});
    p.node_rejoins.push_back({70.0, 5});
    p.data_updates.push_back({45.0, 2, core::Mass::scalar(0.5, 0.0)});
    corpus.emplace_back("crash_rejoin_update", p);
  }
  {
    sim::FaultPlan p;
    p.churn_fail_prob = 0.02;
    p.churn_heal_rate = 0.25;
    corpus.emplace_back("churn", p);
  }
  return corpus;
}

constexpr Algorithm kRoster[] = {Algorithm::kPushSum,          Algorithm::kPushFlow,
                                 Algorithm::kPushCancelFlow,   Algorithm::kFlowUpdating,
                                 Algorithm::kCorrectionAllreduce, Algorithm::kFuMassHybrid};

TEST(Differential, FaultPlanCorpusReplaysDeterministicallyInBothDeliveryModes) {
  const auto t = net::Topology::grid2d(3, 4);
  for (const auto& [name, plan] : fault_plan_corpus()) {
    for (const Algorithm algorithm : kRoster) {
      for (const sim::Delivery delivery : {sim::Delivery::kSequential, sim::Delivery::kCrossing}) {
        const auto run_once = [&] {
          const auto values = test::random_values(t.size(), 17 ^ 0xabcdef);
          sim::SyncEngineConfig cfg;
          cfg.algorithm = algorithm;
          cfg.faults = plan;
          cfg.seed = 17;
          cfg.delivery = delivery;
          cfg.invariants.enabled = true;
          sim::SyncEngine engine(t, sim::masses_from_values(values, core::Aggregate::kAverage),
                                 cfg);
          engine.run(150);  // armed checkers: any invariant violation throws
          return engine.estimates();
        };
        const auto first = run_once();
        const auto second = run_once();
        EXPECT_EQ(first, second) << name << " / " << core::to_string(algorithm) << " / "
                                 << (delivery == sim::Delivery::kSequential ? "sequential"
                                                                            : "crossing");
        for (const double e : first) {
          if (!std::isnan(e)) {
            EXPECT_TRUE(std::isfinite(e));
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace pcf
