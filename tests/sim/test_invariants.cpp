// The invariant-checker subsystem: enablement plumbing, engine integration,
// and — via hand-injected corruption the fault model did NOT declare — proof
// that each checker actually fires.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>

#include "net/topology.hpp"
#include "sim/engine_async.hpp"
#include "sim/engine_sync.hpp"
#include "sim/invariants.hpp"
#include "test_util.hpp"

namespace pcf {
namespace {

using core::Algorithm;
using sim::FaultExposure;
using sim::InvariantConfig;
using sim::InvariantViolation;
using sim::InvariantViolationError;
using sim::SystemView;

bool has_violation(const std::vector<InvariantViolation>& violations, std::string_view checker) {
  for (const auto& v : violations) {
    if (v.checker == checker) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Enablement plumbing.

TEST(InvariantConfig, ExplicitSettingWinsOverEnvironment) {
  ASSERT_EQ(setenv("PCF_CHECK_INVARIANTS", "1", 1), 0);
  InvariantConfig config;
  config.enabled = false;
  EXPECT_FALSE(config.resolve_enabled());
  config.enabled = true;
  ASSERT_EQ(setenv("PCF_CHECK_INVARIANTS", "0", 1), 0);
  EXPECT_TRUE(config.resolve_enabled());
  ASSERT_EQ(setenv("PCF_CHECK_INVARIANTS", "1", 1), 0);
}

TEST(InvariantConfig, UnsetConsultsTheEnvironment) {
  InvariantConfig config;  // enabled not set
  ASSERT_EQ(setenv("PCF_CHECK_INVARIANTS", "1", 1), 0);
  EXPECT_TRUE(config.resolve_enabled());
  ASSERT_EQ(setenv("PCF_CHECK_INVARIANTS", "0", 1), 0);
  EXPECT_FALSE(config.resolve_enabled());
  ASSERT_EQ(unsetenv("PCF_CHECK_INVARIANTS"), 0);
  EXPECT_FALSE(config.resolve_enabled());
  ASSERT_EQ(setenv("PCF_CHECK_INVARIANTS", "1", 1), 0);  // restore the suite default
}

// ---------------------------------------------------------------------------
// Engine integration.

TEST(InvariantMonitor, RunsEveryRoundInsideTheSyncEngine) {
  auto engine = test::make_engine(net::Topology::hypercube(3), Algorithm::kPushCancelFlow,
                                  core::Aggregate::kAverage);
  ASSERT_NE(engine.invariants(), nullptr);
  engine.run(50);
  EXPECT_EQ(engine.invariants()->checks_run(), 50u);
  EXPECT_TRUE(engine.invariants()->violations().empty());
}

TEST(InvariantMonitor, HonorsTheCheckCadence) {
  sim::SyncEngineConfig config;
  config.algorithm = Algorithm::kPushFlow;
  config.invariants.enabled = true;
  config.invariants.check_every = 10;
  const auto masses = test::bus_case_study_masses(6);
  sim::SyncEngine engine(net::Topology::bus(6), masses, config);
  engine.run(100);
  EXPECT_EQ(engine.invariants()->checks_run(), 10u);
}

TEST(InvariantMonitor, CanBeDisabledPerEngine) {
  sim::SyncEngineConfig config;
  config.invariants.enabled = false;
  const auto masses = test::bus_case_study_masses(4);
  sim::SyncEngine engine(net::Topology::bus(4), masses, config);
  engine.run(20);
  EXPECT_EQ(engine.invariants(), nullptr);
}

TEST(InvariantMonitor, RunsInsideTheAsyncEngine) {
  sim::AsyncEngineConfig config;
  config.algorithm = Algorithm::kPushCancelFlow;
  config.invariants.enabled = true;
  const auto masses = test::bus_case_study_masses(8);
  sim::AsyncEngine engine(net::Topology::ring(8), masses, config);
  for (int t = 1; t <= 20; ++t) engine.run_until(t);
  ASSERT_NE(engine.invariants(), nullptr);
  EXPECT_EQ(engine.invariants()->checks_run(), 20u);
  EXPECT_TRUE(engine.invariants()->violations().empty());
}

// The headline property: corruption the fault model did NOT declare is caught
// by the per-round checks. (Declared corruption — state_flip_prob — is an
// expected violation and is filtered; see test_state_corruption.cpp.)
// A stored-flow bit flip always breaks the exact mirror property, whatever
// bit it lands on, so flow-antisymmetry is the checker that must fire.
TEST(InvariantMonitor, CatchesUndeclaredStateCorruption) {
  auto engine = test::make_engine(net::Topology::hypercube(3), Algorithm::kPushFlow,
                                  core::Aggregate::kAverage);
  engine.run(30);
  Rng rng(99);
  ASSERT_TRUE(engine.fleet().corrupt_stored_flow(0, rng));
  EXPECT_THROW(engine.check_invariants_now(), InvariantViolationError);
}

TEST(InvariantMonitor, AccumulatesInsteadOfThrowingWhenConfigured) {
  sim::SyncEngineConfig config;
  config.algorithm = Algorithm::kPushFlow;
  config.invariants.enabled = true;
  config.invariants.throw_on_violation = false;
  const auto masses = test::bus_case_study_masses(6);
  sim::SyncEngine engine(net::Topology::bus(6), masses, config);
  engine.run(30);
  Rng rng(99);
  ASSERT_TRUE(engine.fleet().corrupt_stored_flow(2, rng));
  EXPECT_NO_THROW(engine.check_invariants_now());
  const auto& violations = engine.invariants()->violations();
  ASSERT_FALSE(violations.empty());
  EXPECT_TRUE(has_violation(violations, "flow-antisymmetry"));
}

// Mass injected behind the engine's back (update_data without the matching
// oracle shift of apply_data_update) breaks global conservation by a full
// unit — the mass checker must see it.
TEST(InvariantMonitor, CatchesAnUndeclaredMassInjection) {
  sim::SyncEngineConfig config;
  config.algorithm = Algorithm::kPushCancelFlow;
  config.invariants.enabled = true;
  config.invariants.throw_on_violation = false;
  const auto masses = test::bus_case_study_masses(6);
  sim::SyncEngine engine(net::Topology::bus(6), masses, config);
  engine.run(30);
  engine.fleet().update_data(3, core::Mass::scalar(5.0, 0.0));
  engine.check_invariants_now();
  EXPECT_TRUE(has_violation(engine.invariants()->violations(), "mass-conservation"));
}

TEST(InvariantMonitor, EnvelopeCatchesAnUndeclaredEstimateJump) {
  sim::SyncEngineConfig config;
  config.algorithm = Algorithm::kPushCancelFlow;
  config.invariants.enabled = true;
  config.invariants.throw_on_violation = false;
  const auto masses = test::bus_case_study_masses(6);
  sim::SyncEngine engine(net::Topology::bus(6), masses, config);
  ASSERT_TRUE(engine.run_until_error(1e-9, 20000).reached_target);
  // A data update behind the engine's back: the oracle target is NOT shifted
  // (unlike apply_data_update), so every estimate suddenly looks wrong.
  engine.fleet().update_data(0, core::Mass::scalar(100.0, 0.0));
  engine.check_invariants_now();
  EXPECT_TRUE(has_violation(engine.invariants()->violations(), "estimate-envelope"));
}

TEST(InvariantMonitor, FiniteStateCatchesNonFiniteEstimates) {
  sim::SyncEngineConfig config;
  config.algorithm = Algorithm::kPushFlow;
  config.invariants.enabled = true;
  config.invariants.throw_on_violation = false;
  const auto masses = test::bus_case_study_masses(4);
  sim::SyncEngine engine(net::Topology::bus(4), masses, config);
  engine.run(10);
  engine.fleet().update_data(1, core::Mass::scalar(std::numeric_limits<double>::infinity(), 0.0));
  engine.check_invariants_now();
  EXPECT_TRUE(has_violation(engine.invariants()->violations(), "finite-state"));
}

// Declared faults must NOT trip the checkers: the whole fault-tolerance test
// suite runs with the monitor armed, so this is belt and braces for the
// fault-awareness gating.
TEST(InvariantMonitor, DeclaredFaultsAreExpectedViolations) {
  sim::FaultPlan faults;
  faults.message_loss_prob = 0.2;
  faults.link_failures.push_back({30.0, 0, 1});
  faults.node_crashes.push_back({60.0, 5});
  auto engine = test::make_engine(net::Topology::hypercube(3), Algorithm::kPushCancelFlow,
                                  core::Aggregate::kAverage, 7, std::move(faults));
  EXPECT_NO_THROW(engine.run(400));
  EXPECT_TRUE(engine.invariants()->violations().empty());
}

// ---------------------------------------------------------------------------
// Individual checkers against a hand-built two-node system.

class PairView final : public SystemView {
 public:
  PairView(Algorithm algorithm, double v0, double v1)
      : algorithm_(algorithm),
        topology_(net::Topology::bus(2)),
        masses_{core::Mass::scalar(v0, 1.0), core::Mass::scalar(v1, 1.0)},
        oracle_(masses_),
        fleet_(algorithm, {}, topology_, masses_) {}

  [[nodiscard]] const net::Topology& topology() const override { return topology_; }
  [[nodiscard]] Algorithm algorithm() const override { return algorithm_; }
  [[nodiscard]] double time() const override { return 0.0; }
  [[nodiscard]] bool alive(net::NodeId) const override { return true; }
  [[nodiscard]] const core::ArenaFleet& fleet() const override { return fleet_; }
  [[nodiscard]] bool link_dead(net::NodeId, net::NodeId) const override { return false; }
  [[nodiscard]] const sim::Oracle& oracle() const override { return oracle_; }
  [[nodiscard]] FaultExposure faults() const override { return exposure; }

  core::ArenaFleet& mutable_fleet() { return fleet_; }
  FaultExposure exposure;  // defaults: clean sequential transport

 private:
  Algorithm algorithm_;
  net::Topology topology_;
  std::vector<core::Mass> masses_;
  sim::Oracle oracle_;
  core::ArenaFleet fleet_;
};

TEST(PcfHandshakeChecker, ForgedCycleCounterViolatesTheSkewBound) {
  PairView view(Algorithm::kPushCancelFlow, 3.0, 1.0);
  // Forge an out-of-protocol packet: the completer (node 1) is told the
  // initiator finished a cancellation that never happened. It swaps and runs
  // one cycle ahead — the receipt-driven discipline forbids that state.
  core::Packet forged;
  forged.a = core::Mass::zero(1);
  forged.b = core::Mass::zero(1);
  forged.active_slot = 1;
  forged.role_count = 1;  // completer cycle (0) + 1
  view.mutable_fleet().receive(1, 0, forged);

  auto checker = sim::make_pcf_handshake_checker();
  std::vector<InvariantViolation> out;
  checker->check(view, out);
  ASSERT_FALSE(out.empty());
  EXPECT_NE(out[0].detail.find("cycle skew"), std::string::npos) << out[0].detail;
}

TEST(PcfHandshakeChecker, CleanHandshakeHasNoViolations) {
  PairView view(Algorithm::kPushCancelFlow, 3.0, 1.0);
  // One long-lived checker so the cycle-monotonicity history is exercised too.
  auto checker = sim::make_pcf_handshake_checker();
  Rng rng(1);
  for (int round = 0; round < 25; ++round) {
    for (net::NodeId i : {net::NodeId{0}, net::NodeId{1}}) {
      auto out = view.mutable_fleet().make_message(i, rng);
      ASSERT_TRUE(out.has_value());
      view.mutable_fleet().receive(out->to, i, out->packet);
    }
    std::vector<InvariantViolation> violations;
    checker->check(view, violations);
    EXPECT_TRUE(violations.empty()) << violations.front().detail;
  }
}

TEST(FlowAntisymmetryChecker, ExactMirrorPassesAndCorruptionFails) {
  PairView view(Algorithm::kPushFlow, 2.0, 4.0);
  Rng rng(3);
  auto out = view.mutable_fleet().make_message(0, rng);
  ASSERT_TRUE(out.has_value());
  view.mutable_fleet().receive(1, 0, out->packet);

  auto checker = sim::make_flow_antisymmetry_checker();
  std::vector<InvariantViolation> violations;
  checker->check(view, violations);
  EXPECT_TRUE(violations.empty());

  ASSERT_TRUE(view.mutable_fleet().corrupt_stored_flow(0, rng));
  checker->check(view, violations);
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations[0].checker, "flow-antisymmetry");
}

TEST(MassConservationChecker, SkipsWhenPacketsAreInFlight) {
  PairView view(Algorithm::kPushFlow, 2.0, 4.0);
  // Mass IS broken (a unit appears out of nowhere, the oracle knows nothing)…
  view.mutable_fleet().update_data(0, core::Mass::scalar(1.0, 0.0));

  InvariantConfig config;
  auto checker = sim::make_mass_conservation_checker(config);
  std::vector<InvariantViolation> violations;
  view.exposure.in_flight = true;  // …but the checker must not claim exactness
  checker->check(view, violations);
  EXPECT_TRUE(violations.empty());

  view.exposure.in_flight = false;
  checker->check(view, violations);
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations[0].checker, "mass-conservation");
}

TEST(MassConservationChecker, SkipsOnceTheTransportDroppedAMessage) {
  PairView view(Algorithm::kPushFlow, 2.0, 4.0);
  view.mutable_fleet().update_data(0, core::Mass::scalar(1.0, 0.0));
  view.exposure.messages_dropped = 1;  // a declared loss event explains it
  InvariantConfig config;
  auto checker = sim::make_mass_conservation_checker(config);
  std::vector<InvariantViolation> violations;
  checker->check(view, violations);
  EXPECT_TRUE(violations.empty());
}

}  // namespace
}  // namespace pcf
