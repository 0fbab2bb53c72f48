// Regression tests for the recovery-and-churn fault layer: link heals, node
// rejoins, failure-detector false positives, probabilistic churn, and
// adversarial delivery (duplication + reordering) on both engines.
//
// Accuracy expectations are per algorithm:
//  * PF / FU / PS with symmetric exclusions and nothing in flight (sync
//    sequential delivery) conserve mass exactly — after a heal they
//    reconverge to the ORIGINAL aggregate at machine precision.
//  * PCF's cancellation handshake has a two-generals window: excluding an
//    edge while the initiator still holds a pending-absorbed flow costs up to
//    one in-flight flow of mass (seed-dependent). Tests asserting machine
//    precision for PCF use crash+rejoin plans (the rejoin retarget absorbs
//    the bias) or seeds verified to avoid the window.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "sim/engine_async.hpp"
#include "sim/engine_sync.hpp"
#include "sim/reduce.hpp"
#include "test_util.hpp"

namespace pcf::sim {
namespace {

using core::Aggregate;
using core::Algorithm;
using test::make_engine;

AsyncEngine make_async(const net::Topology& t, Algorithm alg, Aggregate agg,
                       std::uint64_t seed = 1, FaultPlan faults = {}) {
  const auto values = test::random_values(t.size(), seed ^ 0xabcdef);
  auto masses = masses_from_values(values, agg);
  AsyncEngineConfig cfg;
  cfg.algorithm = alg;
  cfg.faults = std::move(faults);
  cfg.seed = seed;
  cfg.invariants.enabled = true;
  return AsyncEngine(t, masses, cfg);
}

double spread_of(const std::vector<double>& est) {
  const auto [lo, hi] = std::minmax_element(est.begin(), est.end());
  return *hi - *lo;
}

// ---------------------------------------------------------------- sync engine

TEST(SyncRecovery, HealReconvergesExactlyForSymmetricAlgorithms) {
  // Fail a ring link, heal it later: PF / FU / PS lose no mass (sequential
  // delivery, symmetric exclusion), so the original aggregate returns at
  // machine precision once the topology is whole again.
  for (const auto algorithm : {Algorithm::kPushFlow, Algorithm::kFlowUpdating,
                               Algorithm::kPushSum, Algorithm::kFuMassHybrid}) {
    const auto t = net::Topology::ring(8);
    FaultPlan faults;
    faults.link_failures.push_back({40.0, 0, 1});
    faults.link_heals.push_back({120.0, 0, 1});
    auto engine = make_engine(t, algorithm, Aggregate::kAverage, 1, faults);
    engine.run(60);
    EXPECT_EQ(engine.fleet().live_degree(0), 1u) << core::to_string(algorithm);
    engine.run(70);  // past the heal: the link is re-admitted
    EXPECT_EQ(engine.fleet().live_degree(0), 2u) << core::to_string(algorithm);
    const auto stats = engine.run_until_error(1e-12, 4000);
    EXPECT_TRUE(stats.reached_target) << core::to_string(algorithm);
    const auto exposure = engine.fault_exposure();
    EXPECT_EQ(exposure.link_failures, 1u);
    EXPECT_EQ(exposure.link_heals, 1u);
  }
}

TEST(SyncRecovery, PcfCrashAndRejoinReconvergesToRetargetedOracle) {
  // The crashed node's mass leaves, then re-enters fresh at the rejoin; the
  // oracle retargets both times. The rejoin snapshot absorbs any exclusion
  // bias, so PCF reaches machine precision against the final target at ANY
  // seed — this is the recovery path the paper's Section IV machinery needs.
  const auto t = net::Topology::ring(8);
  FaultPlan faults;
  faults.node_crashes.push_back({40.0, 3});
  faults.node_rejoins.push_back({120.0, 3});
  auto engine = make_engine(t, Algorithm::kPushCancelFlow, Aggregate::kAverage, 1, faults);
  engine.run(60);
  EXPECT_FALSE(engine.node_alive(3));
  engine.run(70);
  EXPECT_TRUE(engine.node_alive(3));
  const auto stats = engine.run_until_error(1e-12, 4000);
  EXPECT_TRUE(stats.reached_target);
  const auto exposure = engine.fault_exposure();
  EXPECT_EQ(exposure.crashes, 1u);
  EXPECT_EQ(exposure.rejoins, 1u);
}

TEST(SyncRecovery, PcfHealReconvergesWhenHandshakeWindowAvoided) {
  // Seed verified to exclude the edge with no pending-absorbed flow on it
  // (two-generals window not hit): PCF heals back to machine precision. A
  // window-hitting seed instead carries a ~1e-4 one-flow bias — that case is
  // covered by the relaxed mass_fault_tol in the invariant layer.
  const auto t = net::Topology::ring(8);
  FaultPlan faults;
  faults.link_failures.push_back({40.0, 0, 1});
  faults.link_heals.push_back({120.0, 0, 1});
  auto engine = make_engine(t, Algorithm::kPushCancelFlow, Aggregate::kAverage, 2, faults);
  const auto stats = engine.run_until_error(1e-12, 4000);
  EXPECT_TRUE(stats.reached_target);
}

TEST(SyncRecovery, AllAlgorithmsReconvergeAfterCrashAndRejoin) {
  for (const auto algorithm : {Algorithm::kPushSum, Algorithm::kPushFlow,
                               Algorithm::kFlowUpdating, Algorithm::kFuMassHybrid}) {
    const auto t = net::Topology::hypercube(3);
    FaultPlan faults;
    faults.node_crashes.push_back({30.0, 5});
    faults.node_rejoins.push_back({90.0, 5});
    auto engine = make_engine(t, algorithm, Aggregate::kAverage, 3, faults);
    const auto stats = engine.run_until_error(1e-10, 4000);
    EXPECT_TRUE(stats.reached_target) << core::to_string(algorithm);
  }
}

TEST(SyncRecovery, FalseDetectExcludesThenReadmitsExactly) {
  // Detector false positive: the link is excluded while the transport stays
  // up, then "detected up" clear_delay later. PF's exclusion is symmetric and
  // nothing is in flight, so the episode is mass-neutral — the original
  // aggregate returns at machine precision.
  const auto t = net::Topology::ring(8);
  FaultPlan faults;
  faults.false_detects.push_back({40.0, 0, 1, 30.0});
  auto engine = make_engine(t, Algorithm::kPushFlow, Aggregate::kAverage, 1, faults);
  engine.run(50);
  EXPECT_EQ(engine.fleet().live_degree(0), 1u);  // wrongly excluded
  EXPECT_EQ(engine.fleet().live_degree(1), 1u);
  engine.run(30);  // past round 70 = detect(40) + clear(30)
  EXPECT_EQ(engine.fleet().live_degree(0), 2u);  // detected up again
  const auto stats = engine.run_until_error(1e-12, 4000);
  EXPECT_TRUE(stats.reached_target);
  EXPECT_EQ(engine.fault_exposure().false_detects, 1u);
  EXPECT_EQ(engine.fault_exposure().false_clears, 1u);
}

TEST(SyncRecovery, PcfFalseDetectClearPassesHandshakeChecker) {
  // Regression: the CLEAR of a false positive resets the PCF cycle counters
  // via on_link_up, exactly like the fire does — the handshake checker must
  // resynchronize at BOTH edges of the episode (FaultExposure.false_clears),
  // not just at the fire, or it reports "cycle counter went backwards".
  const auto t = net::Topology::ring(8);
  FaultPlan faults;
  faults.false_detects.push_back({40.0, 0, 1, 30.0});
  auto engine =
      make_engine(t, Algorithm::kPushCancelFlow, Aggregate::kAverage, 1, faults);
  engine.run(200);  // would throw at the clear without the resync
  const auto exposure = engine.fault_exposure();
  EXPECT_EQ(exposure.false_detects, 1u);
  EXPECT_EQ(exposure.false_clears, 1u);
}

TEST(SyncRecovery, AdversarialDeliverySelfHealsUnderArmedCheckers) {
  // 150 rounds of duplication + reordering with the invariant monitor armed
  // (ctest also exports PCF_CHECK_INVARIANTS=1): no checker may fire. Flow
  // mirrors are idempotent and absolute, so once the knobs quiet down the
  // algorithms reconverge to the original aggregate.
  for (const auto algorithm : {Algorithm::kPushFlow, Algorithm::kPushCancelFlow,
                               Algorithm::kFlowUpdating, Algorithm::kFuMassHybrid}) {
    const auto t = net::Topology::ring(8);
    FaultPlan faults;
    faults.duplicate_prob = 0.2;
    faults.reorder_prob = 0.2;
    auto engine = make_engine(t, algorithm, Aggregate::kAverage, 7, faults);
    engine.run(150);
    EXPECT_GT(engine.stats().messages_duplicated, 0u) << core::to_string(algorithm);
    engine.mutable_faults().duplicate_prob = 0.0;
    engine.mutable_faults().reorder_prob = 0.0;
    const auto stats = engine.run_until_error(1e-10, 4000);
    EXPECT_TRUE(stats.reached_target) << core::to_string(algorithm);
  }
}

TEST(SyncRecovery, PushSumDuplicationIsToleratedByCheckers) {
  // Push-sum shares are NOT idempotent — duplicates add mass, which is the
  // asymmetry the fault model exists to expose. The conservation checkers
  // must suspend themselves (FaultExposure.messages_duplicated) rather than
  // fire on the expected violation.
  const auto t = net::Topology::ring(8);
  FaultPlan faults;
  faults.duplicate_prob = 0.2;
  auto engine = make_engine(t, Algorithm::kPushSum, Aggregate::kAverage, 7, faults);
  engine.run(200);  // would throw if a checker fired
  EXPECT_GT(engine.fault_exposure().messages_duplicated, 0u);
}

TEST(SyncRecovery, ChurnWithHealsReconvergesAfterQuieting) {
  // Probabilistic fail/heal cycling, then quiet the churn, heal the stragglers
  // and verify the original aggregate returns (PF: exactly conservative).
  const auto t = net::Topology::ring(8);
  FaultPlan faults;
  faults.churn_fail_prob = 0.01;
  faults.churn_heal_rate = 0.1;
  auto engine = make_engine(t, Algorithm::kPushFlow, Aggregate::kAverage, 5, faults);
  engine.run(200);
  const auto exposure = engine.fault_exposure();
  EXPECT_GE(exposure.link_failures, 1u);  // churn did something (seed-pinned)
  EXPECT_GE(exposure.link_heals, 1u);
  engine.mutable_faults().churn_fail_prob = 0.0;
  for (const auto& [a, b] : engine.dead_links()) engine.heal_link_now(a, b);
  const auto stats = engine.run_until_error(1e-10, 6000);
  EXPECT_TRUE(stats.reached_target);
}

TEST(SyncRecovery, HealLinkNowIsImmediateAndIdempotent) {
  const auto t = net::Topology::ring(6);
  auto engine = make_engine(t, Algorithm::kPushFlow, Aggregate::kAverage, 1);
  engine.run(20);
  engine.fail_link_now(0, 1);
  EXPECT_EQ(engine.fleet().live_degree(0), 1u);
  engine.heal_link_now(0, 1);
  EXPECT_EQ(engine.fleet().live_degree(0), 2u);
  engine.heal_link_now(0, 1);  // healing a live link is a no-op
  EXPECT_EQ(engine.fleet().live_degree(0), 2u);
  const auto stats = engine.run_until_error(1e-12, 4000);
  EXPECT_TRUE(stats.reached_target);
}

TEST(SyncRecovery, RecoveryPlansAreDeterministicPerSeed) {
  const auto t = net::Topology::ring(8);
  FaultPlan faults;
  faults.churn_fail_prob = 0.02;
  faults.churn_heal_rate = 0.1;
  faults.duplicate_prob = 0.1;
  faults.reorder_prob = 0.1;
  auto a = make_engine(t, Algorithm::kPushCancelFlow, Aggregate::kAverage, 11, faults);
  auto b = make_engine(t, Algorithm::kPushCancelFlow, Aggregate::kAverage, 11, faults);
  a.run(150);
  b.run(150);
  EXPECT_EQ(a.estimates(), b.estimates());  // bit-identical
  EXPECT_EQ(a.fault_exposure().link_failures, b.fault_exposure().link_failures);
  EXPECT_EQ(a.fault_exposure().link_heals, b.fault_exposure().link_heals);
  EXPECT_EQ(a.stats().messages_duplicated, b.stats().messages_duplicated);
}

// ----------------------------------------------- correction-based allreduce
//
// The tree algorithm's recovery story is structural, not mass-based: faults
// fragment or rewire the spanning tree, and a correction round (re-attach to
// the (depth, id)-minimal live neighbor of strictly smaller static depth)
// restores exactness wherever the survivors still span.

TEST(SyncRecovery, CorrectionRoundReattachesChildAfterParentCrash) {
  // 4x4 grid, BFS tree from node 0: node 9 attaches to node 5, but also
  // borders node 8 at the same depth. Crashing 5 mid-reduction forces the
  // correction round at 9 (re-attach to 8); the survivors' tree still spans,
  // so the retargeted aggregate is reached at machine precision.
  const auto t = net::Topology::grid2d(4, 4);
  FaultPlan faults;
  faults.node_crashes.push_back({30.0, 5});
  auto engine = make_engine(t, Algorithm::kCorrectionAllreduce, Aggregate::kAverage, 3, faults);
  engine.run(40);
  EXPECT_FALSE(engine.node_alive(5));
  const auto stats = engine.run_until_error(1e-13, 1000);
  EXPECT_TRUE(stats.reached_target);
  EXPECT_EQ(engine.fault_exposure().crashes, 1u);
}

TEST(SyncRecovery, CorrectionRejoinRestoresStaticAttachment) {
  // After the crashed parent rejoins, the (depth, id)-minimal rule moves the
  // re-attached child back to its static parent and the FULL aggregate
  // (oracle retargeted at the rejoin) is exact again.
  const auto t = net::Topology::grid2d(4, 4);
  FaultPlan faults;
  faults.node_crashes.push_back({30.0, 5});
  faults.node_rejoins.push_back({90.0, 5});
  auto engine = make_engine(t, Algorithm::kCorrectionAllreduce, Aggregate::kAverage, 3, faults);
  engine.run(100);
  EXPECT_TRUE(engine.node_alive(5));
  const auto stats = engine.run_until_error(1e-13, 1000);
  EXPECT_TRUE(stats.reached_target);
  EXPECT_EQ(engine.fault_exposure().rejoins, 1u);
}

TEST(SyncRecovery, CorrectionFragmentsOnChainCutThenHealsExactly) {
  // The graceful-degradation cliff, pinned: cutting the ring's 0-1 link
  // splits the chain tree into two fragments whose roots honestly report
  // DIFFERENT fragment aggregates (the estimates disagree), and the heal
  // reunites the tree and restores the global aggregate exactly.
  const auto t = net::Topology::ring(8);
  FaultPlan faults;
  faults.link_failures.push_back({40.0, 0, 1});
  faults.link_heals.push_back({120.0, 0, 1});
  auto engine = make_engine(t, Algorithm::kCorrectionAllreduce, Aggregate::kAverage, 1, faults);
  engine.run(60);
  EXPECT_GT(engine.max_error(), 1e-6);  // fragmented: no global agreement
  engine.run(70);                       // past the heal
  const auto stats = engine.run_until_error(1e-13, 1000);
  EXPECT_TRUE(stats.reached_target);
  EXPECT_EQ(engine.fault_exposure().link_heals, 1u);
}

TEST(SyncRecovery, CorrectionFalseDetectRewiresAndClearsExactly) {
  // A detector false positive on a tree edge with a spare upward neighbor:
  // node 9 temporarily hangs off node 8, the tree never stops spanning, and
  // exactness holds through the episode and after the clear.
  //
  // Built by hand rather than via make_engine: the tree protocol's error
  // response to a topology event is DELAYED by the re-propagation latency
  // (the excursion lands rounds after the event reset the envelope's
  // best-seen), so the default estimate-envelope checker misreads the
  // transient as a convergence fall-back. Widen its floor past the O(0.1)
  // transient; every other checker stays armed.
  const auto t = net::Topology::grid2d(4, 4);
  FaultPlan faults;
  faults.false_detects.push_back({40.0, 5, 9, 160.0});
  const auto values = test::random_values(t.size(), 1 ^ 0xabcdef);
  std::vector<core::Mass> masses;
  for (std::size_t i = 0; i < values.size(); ++i) {
    masses.push_back(core::Mass::scalar(values[i], core::initial_weight(Aggregate::kAverage, i)));
  }
  sim::SyncEngineConfig cfg;
  cfg.algorithm = Algorithm::kCorrectionAllreduce;
  cfg.faults = faults;
  cfg.seed = 1;
  cfg.invariants.enabled = true;
  cfg.invariants.envelope_floor = 0.5;
  sim::SyncEngine engine(t, masses, cfg);
  engine.run(160);  // deep inside the episode, well past the re-propagation
  EXPECT_LT(engine.max_error(), 1e-13) << "re-attached tree must stay exact";
  engine.run(60);  // past the clear at round 200
  const auto stats = engine.run_until_error(1e-13, 1000);
  EXPECT_TRUE(stats.reached_target);
  EXPECT_EQ(engine.fault_exposure().false_detects, 1u);
  EXPECT_EQ(engine.fault_exposure().false_clears, 1u);
}

// --------------------------------------------------------------- async engine

TEST(AsyncRecovery, LateFailThenHealKeepsFullAccuracy) {
  // After convergence the flows on the cut link are ratio-aligned, so the
  // outage (and the in-flight packets it kills) is estimate-neutral; the heal
  // re-admits the neighbor and full accuracy returns.
  const auto t = net::Topology::hypercube(4);
  FaultPlan faults;
  faults.link_failures.push_back({400.0, 0, 1});
  faults.link_heals.push_back({450.0, 0, 1});
  auto engine = make_async(t, Algorithm::kPushCancelFlow, Aggregate::kAverage, 7, faults);
  engine.run_until(460.0);
  const auto exposure = engine.fault_exposure();
  EXPECT_EQ(exposure.link_failures, 1u);
  EXPECT_EQ(exposure.link_heals, 1u);
  EXPECT_TRUE(engine.run_until_error(1e-11, 2500.0));
}

TEST(AsyncRecovery, CrashThenRejoinReachesRetargetedConsensus) {
  // The rejoining node restarts from its initial mass with a fresh Poisson
  // clock (a crash orphans the old tick chain — the rejoin must restart it,
  // or the node would sit silent and consensus would never include it).
  const auto t = net::Topology::hypercube(3);
  FaultPlan faults;
  faults.node_crashes.push_back({20.0, 2});
  faults.node_rejoins.push_back({60.0, 2});
  auto engine = make_async(t, Algorithm::kPushCancelFlow, Aggregate::kAverage, 7, faults);
  engine.run_until(25.0);
  EXPECT_FALSE(engine.node_alive(2));
  engine.run_until(65.0);
  EXPECT_TRUE(engine.node_alive(2));
  engine.run_until(2000.0);
  EXPECT_LT(spread_of(engine.estimates()), 1e-10);  // all 8 nodes, rejoiner too
  EXPECT_LT(engine.max_error(), 0.05);  // within the in-flight snapshot bound
  const auto exposure = engine.fault_exposure();
  EXPECT_EQ(exposure.crashes, 1u);
  EXPECT_EQ(exposure.rejoins, 1u);
}

TEST(AsyncRecovery, FalseDetectClearsAndReconverges) {
  const auto t = net::Topology::ring(8);
  FaultPlan faults;
  faults.false_detects.push_back({5.0, 0, 1, 10.0});
  auto engine = make_async(t, Algorithm::kPushFlow, Aggregate::kAverage, 3, faults);
  engine.run_until(20.0);
  EXPECT_EQ(engine.fault_exposure().false_detects, 1u);
  engine.run_until(2000.0);
  EXPECT_LT(spread_of(engine.estimates()), 1e-10);
  EXPECT_LT(engine.max_error(), 0.05);
}

TEST(AsyncRecovery, ChurnCyclesLinksAndStaysDeterministic) {
  const auto t = net::Topology::ring(8);
  FaultPlan faults;
  faults.churn_fail_prob = 0.02;  // per link per time unit
  faults.churn_heal_rate = 0.5;   // mean 2-unit outages
  auto a = make_async(t, Algorithm::kPushCancelFlow, Aggregate::kAverage, 13, faults);
  auto b = make_async(t, Algorithm::kPushCancelFlow, Aggregate::kAverage, 13, faults);
  a.run_until(300.0);
  b.run_until(300.0);
  EXPECT_EQ(a.estimates(), b.estimates());  // churn chains are seed-determined
  const auto exposure = a.fault_exposure();
  EXPECT_GE(exposure.link_failures, 1u);
  EXPECT_GE(exposure.link_heals, 1u);
  for (double e : a.estimates()) EXPECT_TRUE(std::isfinite(e));
}

TEST(AsyncRecovery, DuplicationAndReorderingSelfHealUnderArmedCheckers) {
  const auto t = net::Topology::ring(8);
  FaultPlan faults;
  faults.duplicate_prob = 0.15;
  faults.reorder_prob = 0.15;
  faults.reorder_jitter = 0.5;
  auto engine = make_async(t, Algorithm::kPushCancelFlow, Aggregate::kAverage, 9, faults);
  engine.run_until(150.0);
  EXPECT_GT(engine.fault_exposure().messages_duplicated, 0u);
  engine.mutable_faults().duplicate_prob = 0.0;
  engine.mutable_faults().reorder_prob = 0.0;
  EXPECT_TRUE(engine.run_until_error(1e-10, 2500.0));
}

}  // namespace
}  // namespace pcf::sim
