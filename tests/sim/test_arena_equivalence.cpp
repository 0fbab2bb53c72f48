// Pinned reference behaviour of the sync engine: for every algorithm variant,
// both delivery models and every fault class, the FNV-1a chain of the
// per-round state fingerprint (masses, estimates, every per-neighbor flow and
// the protocol counters, bit for bit) plus the final RunStats. The table was
// captured from the per-object reducer engine that the SoA arena was
// originally written against; the arena replays those per-scalar
// floating-point operation chains exactly (see src/core/arena.hpp), so any
// divergence, even in the last ulp, is a bug — not a reason to re-pin.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <ostream>
#include <string_view>
#include <vector>

#include "sim/engine_sync.hpp"
#include "sim/reduce.hpp"
#include "support/binio.hpp"
#include "test_util.hpp"

namespace pcf::sim {
namespace {

using core::Algorithm;
using core::PcfVariant;

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// Exact engine-state fingerprint: per live node, the bit patterns of its
/// conserved mass, estimate, every per-neighbor flow, and the protocol
/// counters the fleet exposes by node id.
std::vector<std::uint64_t> fingerprint(const SyncEngine& engine, const net::Topology& t) {
  std::vector<std::uint64_t> fp;
  const core::ArenaFleet& fleet = engine.fleet();
  for (NodeId i = 0; i < t.size(); ++i) {
    fp.push_back(engine.node_alive(i) ? 1u : 0u);
    if (!engine.node_alive(i)) continue;
    const core::Mass m = fleet.local_mass(i);
    for (std::size_t k = 0; k < m.dim(); ++k) fp.push_back(bits_of(m.s[k]));
    fp.push_back(bits_of(m.w));
    fp.push_back(bits_of(fleet.estimate(i, 0)));
    fp.push_back(fleet.live_degree(i));
    fp.push_back(bits_of(fleet.max_abs_flow_component(i)));
    fp.push_back(fleet.role_swaps(i));
    std::array<core::Mass, 2> flows{};
    for (const NodeId j : t.neighbors(i)) {
      const std::size_t count = fleet.flows_toward(i, j, flows);
      fp.push_back(count);
      for (std::size_t q = 0; q < count; ++q) {
        for (std::size_t k = 0; k < flows[q].dim(); ++k) fp.push_back(bits_of(flows[q].s[k]));
        fp.push_back(bits_of(flows[q].w));
      }
    }
  }
  return fp;
}

/// Feeds a stream of fingerprint words into an FNV-1a chain.
void add_words(Fnv1a& chain, const std::vector<std::uint64_t>& words) {
  for (const std::uint64_t v : words) chain.add(v);
}

/// One pinned run: the fingerprint chain plus every RunStats counter, the
/// delivery count and the final oracle max error (as bits).
struct Golden {
  std::string_view label;    ///< EquivCase label
  std::string_view fixture;  ///< fault class / delivery model
  std::uint64_t chain;
  std::size_t rounds;
  std::size_t messages_sent;
  std::size_t messages_dropped;
  std::size_t messages_flipped;
  std::size_t messages_duplicated;
  std::size_t doubles_sent;
  std::size_t state_flips;
  bool reached_target;
  std::uint64_t deliveries;
  std::uint64_t max_error_bits;
};

// label, fixture, chain, rounds, sent, dropped, flipped, duplicated, doubles,
// state flips, reached, deliveries, max error bits
// clang-format off
constexpr std::array<Golden, 57> kGoldens{{
    {"ps", "clean/sequential", 0x849a2ec55e295755ULL, 40, 640, 0, 0, 0, 1280, 0, false, 640, 0x3ed116cbdeda6ef0ULL},
    {"ps", "clean/crossing", 0x3ac5c7a465e3a043ULL, 40, 640, 0, 0, 0, 1280, 0, false, 640, 0x3efb5fc34add10e3ULL},
    {"ps", "lifecycle/sequential", 0xdc5eed9fb368e580ULL, 40, 624, 2, 0, 0, 1248, 0, false, 622, 0x3f6de58843c84e48ULL},
    {"ps", "lifecycle/crossing", 0x50866e5cae40b314ULL, 40, 624, 2, 0, 0, 1248, 0, false, 622, 0x3f503d871e8bdb97ULL},
    {"ps", "noise/sequential", 0x8aa0513d12451e3bULL, 40, 640, 39, 8, 42, 1280, 0, false, 643, 0x3fbc15a6b800bbe8ULL},
    {"ps", "noise/crossing", 0x243e0695862b6ce0ULL, 40, 640, 36, 13, 29, 1280, 0, false, 633, 0x3fc8146e03936e09ULL},
    {"ps", "irregular", 0x8b475771be52ff55ULL, 100, 2400, 0, 0, 0, 4800, 0, true, 2400, 0x3e06a32205170516ULL},
    {"pf", "clean/sequential", 0x1e85f96dbd286c79ULL, 40, 640, 0, 0, 0, 1280, 0, false, 640, 0x3ed116cbdef0a618ULL},
    {"pf", "clean/crossing", 0x0f926e8342f1d799ULL, 40, 640, 0, 0, 0, 1280, 0, false, 640, 0x3f406b77bf84e8d3ULL},
    {"pf", "lifecycle/sequential", 0x9897db5f4d568e6dULL, 40, 624, 2, 0, 0, 1248, 0, false, 622, 0x3f8fc2af209f21f6ULL},
    {"pf", "lifecycle/crossing", 0xea0b5d1349f7755eULL, 40, 624, 2, 0, 0, 1248, 0, false, 622, 0x3f9b062f54b621dcULL},
    {"pf", "noise/sequential", 0xcbae8a7f66f66f89ULL, 40, 640, 38, 12, 48, 1280, 6, false, 650, 0x3fe162362fc75c6eULL},
    {"pf", "noise/crossing", 0xdb4aa508ccb2894dULL, 40, 640, 39, 13, 27, 1280, 4, false, 628, 0x3ff56ff594451fe4ULL},
    {"pf", "irregular", 0xf8e00f2174f80933ULL, 100, 2400, 0, 0, 0, 4800, 0, true, 2400, 0x3e06a3279e2e4e3dULL},
    {"pf_cached", "clean/sequential", 0x92cb70612826149cULL, 40, 640, 0, 0, 0, 1280, 0, false, 640, 0x3ed116cbdec92798ULL},
    {"pf_cached", "clean/crossing", 0xfaeff5326ca34f48ULL, 40, 640, 0, 0, 0, 1280, 0, false, 640, 0x3f406b77bf84e8d3ULL},
    {"pf_cached", "lifecycle/sequential", 0x54a10b78b72669e6ULL, 40, 624, 2, 0, 0, 1248, 0, false, 622, 0x3f8fc2af209f233fULL},
    {"pf_cached", "lifecycle/crossing", 0x3ebe840c06c2df11ULL, 40, 624, 2, 0, 0, 1248, 0, false, 622, 0x3f9b062f54b621dcULL},
    {"pf_cached", "noise/sequential", 0x8ded145571a9391cULL, 40, 640, 38, 12, 48, 1280, 6, false, 650, 0x3fe0f44ecd72c9e4ULL},
    {"pf_cached", "noise/crossing", 0x479c8887dda7687bULL, 40, 640, 39, 13, 27, 1280, 4, false, 628, 0x4003947051df08bdULL},
    {"pf_cached", "irregular", 0x7ad886ae24226946ULL, 100, 2400, 0, 0, 0, 4800, 0, true, 2400, 0x3e06a325e53ad544ULL},
    {"pcf_robust", "clean/sequential", 0xdd18e847d68e011eULL, 40, 640, 0, 0, 0, 2560, 0, false, 640, 0x3ed116cbdec1bfe0ULL},
    {"pcf_robust", "clean/crossing", 0xeef97606ecbdbb6fULL, 40, 640, 0, 0, 0, 2560, 0, false, 640, 0x3f225ed76d0efca9ULL},
    {"pcf_robust", "lifecycle/sequential", 0x40a26fcaafea0919ULL, 40, 624, 2, 0, 0, 2496, 0, false, 622, 0x3f8fc2af209f2187ULL},
    {"pcf_robust", "lifecycle/crossing", 0xa693262563540763ULL, 40, 624, 2, 0, 0, 2496, 0, false, 622, 0x3f9e2d87efe68fe0ULL},
    {"pcf_robust", "noise/sequential", 0x30a84763e72b4946ULL, 40, 640, 42, 9, 45, 2560, 7, false, 643, 0x3fb3c10aba01b710ULL},
    {"pcf_robust", "noise/crossing", 0xb0f5eebf5ae3f263ULL, 40, 640, 32, 11, 32, 2560, 9, false, 640, 0x3ff130ae31266009ULL},
    {"pcf_robust", "irregular", 0xb755433f9e6d28c5ULL, 100, 2400, 0, 0, 0, 9600, 0, true, 2400, 0x3e06a3227353e354ULL},
    {"pcf_fast", "clean/sequential", 0xa1c0809c85d806acULL, 40, 640, 0, 0, 0, 2560, 0, false, 640, 0x3ed116cbded30738ULL},
    {"pcf_fast", "clean/crossing", 0x38f752e37183c148ULL, 40, 640, 0, 0, 0, 2560, 0, false, 640, 0x3f225ed76d0efca9ULL},
    {"pcf_fast", "lifecycle/sequential", 0x44bc3aae1f907c97ULL, 40, 624, 2, 0, 0, 2496, 0, false, 622, 0x3f8fc2af209f21f4ULL},
    {"pcf_fast", "lifecycle/crossing", 0xde6af31936508447ULL, 40, 624, 2, 0, 0, 2496, 0, false, 622, 0x3f9e2d87efe68fdeULL},
    {"pcf_fast", "noise/sequential", 0xec49db5b07f6e498ULL, 40, 640, 42, 9, 45, 2560, 7, false, 643, 0x3fb494eb87c91ce2ULL},
    {"pcf_fast", "noise/crossing", 0xa0571a6ad4e6d8b3ULL, 40, 640, 32, 11, 32, 2560, 9, false, 640, 0x3ff130af6d2b30d4ULL},
    {"pcf_fast", "irregular", 0xefac9a7c0ef389e9ULL, 100, 2400, 0, 0, 0, 9600, 0, true, 2400, 0x3e06a323be0a7e0eULL},
    {"fu", "clean/sequential", 0xb3bb8b8629663c5dULL, 40, 640, 0, 0, 0, 2560, 0, false, 640, 0x3f83c942d8386cf2ULL},
    {"fu", "clean/crossing", 0x4871f736a47039ddULL, 40, 640, 0, 0, 0, 2560, 0, false, 640, 0x3f9b056ec1760577ULL},
    {"fu", "lifecycle/sequential", 0x1c443e0aff7e396bULL, 40, 624, 2, 0, 0, 2496, 0, false, 622, 0x3fa35b8359ec90b1ULL},
    {"fu", "lifecycle/crossing", 0x7d148d79a21cf50aULL, 40, 624, 2, 0, 0, 2496, 0, false, 622, 0x3f957a7a9b362a50ULL},
    {"fu", "noise/sequential", 0x2e728fc0ff1dbd64ULL, 40, 640, 38, 12, 48, 2560, 6, false, 650, 0x3fc3e5ac9fc00e38ULL},
    {"fu", "noise/crossing", 0xd16eb85976baea4bULL, 40, 640, 39, 13, 27, 2560, 4, false, 628, 0x3fd32ba161212812ULL},
    {"fu", "irregular", 0xe27009c46145f233ULL, 189, 4536, 0, 0, 0, 18144, 0, true, 4536, 0x3e102c2063ecd3b8ULL},
    {"fu", "churn-rejoin", 0x1c5c2f2b35a90c9cULL, 70, 1090, 0, 0, 0, 4360, 0, false, 1090, 0x3fd734c5eae5bb4eULL},
    {"corr", "clean/sequential", 0x1e6e6ca0fe11f13aULL, 40, 640, 0, 0, 0, 2560, 0, false, 640, 0x3fa80cc8e692576dULL},
    {"corr", "clean/crossing", 0xd4a4063bebce1587ULL, 40, 640, 0, 0, 0, 2560, 0, false, 640, 0x3cad591a4d787d9fULL},
    {"corr", "lifecycle/sequential", 0xba8d10900d8bd9cdULL, 40, 624, 2, 0, 0, 2496, 0, false, 622, 0x3faa9a3871abf39dULL},
    {"corr", "lifecycle/crossing", 0xa1f5dd4d3d4d0cc8ULL, 40, 624, 2, 0, 0, 2496, 0, false, 622, 0x3faab92575fe7401ULL},
    {"corr", "noise/sequential", 0x21f79db16e61f952ULL, 40, 640, 38, 12, 48, 2560, 6, false, 650, 0x3fbfdaf62f1165bfULL},
    {"corr", "noise/crossing", 0x6617f41a9f1782ffULL, 40, 640, 39, 13, 27, 2560, 4, false, 628, 0x3fb17beb1ce74987ULL},
    {"corr", "irregular", 0x0c864ccce7fe8c35ULL, 48, 1152, 0, 0, 0, 4608, 0, true, 1152, 0x0000000000000000ULL},
    {"fumd", "clean/sequential", 0xfae061fb6e1479d2ULL, 40, 640, 0, 0, 0, 2560, 0, false, 640, 0x3fab932e7ee546b2ULL},
    {"fumd", "clean/crossing", 0xbd5367b42b6a86abULL, 40, 640, 0, 0, 0, 2560, 0, false, 640, 0x3fc374dfd5ced153ULL},
    {"fumd", "lifecycle/sequential", 0xdec98b35fe9a8b1bULL, 40, 624, 2, 0, 0, 2496, 0, false, 622, 0x3fa9f7fe9db5dbf3ULL},
    {"fumd", "lifecycle/crossing", 0x2be276116e3dfce4ULL, 40, 624, 2, 0, 0, 2496, 0, false, 622, 0x3fd5798c67f78cd0ULL},
    {"fumd", "noise/sequential", 0xb0e4ba137dac29fcULL, 40, 640, 38, 12, 48, 2560, 6, false, 650, 0x3fe1ff20b64dffb5ULL},
    {"fumd", "noise/crossing", 0x29fe381bf0e5dfa0ULL, 40, 640, 39, 13, 27, 2560, 4, false, 628, 0x3feaf137612e1d2eULL},
    {"fumd", "irregular", 0xc27b7b3d25b96335ULL, 318, 7632, 0, 0, 0, 30528, 0, true, 7632, 0x3e0e000e011553adULL},
}};
// clang-format on

Golden observe(std::string_view label, std::string_view fixture, std::uint64_t chain,
               const SyncEngine& engine) {
  const RunStats& s = engine.stats();
  return {label,
          fixture,
          chain,
          s.rounds,
          s.messages_sent,
          s.messages_dropped,
          s.messages_flipped,
          s.messages_duplicated,
          s.doubles_sent,
          s.state_flips,
          s.reached_target,
          engine.perf().deliveries,
          bits_of(engine.max_error())};
}

void expect_matches_golden(const Golden& got) {
  const Golden* want = nullptr;
  for (const Golden& g : kGoldens) {
    if (g.label == got.label && g.fixture == got.fixture) want = &g;
  }
  ASSERT_NE(want, nullptr) << "no golden for " << got.label << " " << got.fixture;
  EXPECT_EQ(got.chain, want->chain) << "per-round state diverged from the pinned reference";
  EXPECT_EQ(got.rounds, want->rounds);
  EXPECT_EQ(got.messages_sent, want->messages_sent);
  EXPECT_EQ(got.messages_dropped, want->messages_dropped);
  EXPECT_EQ(got.messages_flipped, want->messages_flipped);
  EXPECT_EQ(got.messages_duplicated, want->messages_duplicated);
  EXPECT_EQ(got.doubles_sent, want->doubles_sent);
  EXPECT_EQ(got.state_flips, want->state_flips);
  EXPECT_EQ(got.reached_target, want->reached_target);
  EXPECT_EQ(got.deliveries, want->deliveries);
  EXPECT_EQ(got.max_error_bits, want->max_error_bits);
}

struct EquivCase {
  Algorithm algorithm;
  PcfVariant pcf_variant = PcfVariant::kRobust;
  bool pf_cached = false;
  const char* label = "";
};

// Without this gtest prints the raw object bytes, which include the label's
// pointer, so the listed test names would change from build to build.
void PrintTo(const EquivCase& equiv_case, std::ostream* os) { *os << equiv_case.label; }

std::vector<EquivCase> equiv_cases() {
  return {
      {Algorithm::kPushSum, PcfVariant::kRobust, false, "ps"},
      {Algorithm::kPushFlow, PcfVariant::kRobust, false, "pf"},
      {Algorithm::kPushFlow, PcfVariant::kRobust, true, "pf_cached"},
      {Algorithm::kPushCancelFlow, PcfVariant::kRobust, false, "pcf_robust"},
      {Algorithm::kPushCancelFlow, PcfVariant::kFast, false, "pcf_fast"},
      {Algorithm::kFlowUpdating, PcfVariant::kRobust, false, "fu"},
      {Algorithm::kCorrectionAllreduce, PcfVariant::kRobust, false, "corr"},
      {Algorithm::kFuMassHybrid, PcfVariant::kRobust, false, "fumd"},
  };
}

std::string case_name(const ::testing::TestParamInfo<EquivCase>& info) {
  return info.param.label;
}

/// The fault classes of the pinned contract. "lifecycle" schedules a crash,
/// a rejoin, a link failure, a heal, a false detection, and a live data
/// update on a 4x4 torus; "noise" turns on every probabilistic knob at once
/// (loss, flips, stored-state flips, duplicates, reordering, churn).
FaultPlan lifecycle_plan() {
  FaultPlan plan;
  plan.detection_delay = 1.0;
  plan.link_failures.push_back({4.0, 0, 1});
  plan.node_crashes.push_back({8.0, 5});
  plan.false_detects.push_back({11.0, 2, 3, 4.0});
  plan.data_updates.push_back({14.0, 9, core::Mass::scalar(0.25, 0.0)});
  plan.link_heals.push_back({18.0, 0, 1});
  plan.node_rejoins.push_back({24.0, 5});
  return plan;
}

FaultPlan noise_plan() {
  FaultPlan plan;
  plan.message_loss_prob = 0.05;
  plan.bit_flip_prob = 0.02;
  plan.state_flip_prob = 0.01;
  plan.duplicate_prob = 0.05;
  plan.reorder_prob = 0.05;
  plan.churn_fail_prob = 0.01;
  plan.churn_heal_rate = 0.2;
  plan.detection_delay = 1.0;
  return plan;
}

std::vector<core::Mass> scalar_masses(std::size_t n, std::uint64_t seed) {
  const auto values = test::random_values(n, seed);
  std::vector<core::Mass> masses;
  for (const double v : values) masses.push_back(core::Mass::scalar(v, 1.0));
  return masses;
}

class ArenaEquivalence : public ::testing::TestWithParam<EquivCase> {
 protected:
  void run_pinned(std::string_view fixture, FaultPlan plan, Delivery delivery,
                  std::uint64_t seed) {
    const EquivCase& c = GetParam();
    const auto topology = net::Topology::grid2d(4, 4, /*wrap=*/true);
    const auto masses = scalar_masses(topology.size(), seed ^ 0xabcdef);
    SyncEngineConfig cfg;
    cfg.algorithm = c.algorithm;
    cfg.reducer.pcf_variant = c.pcf_variant;
    cfg.reducer.pf_cached_flow_sum = c.pf_cached;
    cfg.faults = std::move(plan);
    cfg.seed = seed;
    cfg.delivery = delivery;
    cfg.invariants.enabled = true;
    SyncEngine engine(topology, masses, cfg);
    Fnv1a chain;
    for (std::size_t r = 0; r < 40; ++r) {
      engine.step();
      add_words(chain, fingerprint(engine, topology));
    }
    expect_matches_golden(observe(c.label, fixture, chain.value(), engine));
  }
};

TEST_P(ArenaEquivalence, CleanSequential) {
  run_pinned("clean/sequential", {}, Delivery::kSequential, 11);
}

TEST_P(ArenaEquivalence, CleanCrossing) {
  run_pinned("clean/crossing", {}, Delivery::kCrossing, 12);
}

TEST_P(ArenaEquivalence, LifecycleSequential) {
  run_pinned("lifecycle/sequential", lifecycle_plan(), Delivery::kSequential, 13);
}

TEST_P(ArenaEquivalence, LifecycleCrossing) {
  run_pinned("lifecycle/crossing", lifecycle_plan(), Delivery::kCrossing, 14);
}

TEST_P(ArenaEquivalence, NoiseSequential) {
  run_pinned("noise/sequential", noise_plan(), Delivery::kSequential, 15);
}

TEST_P(ArenaEquivalence, NoiseCrossing) {
  run_pinned("noise/crossing", noise_plan(), Delivery::kCrossing, 16);
}

TEST_P(ArenaEquivalence, IrregularTopologyConvergesIdentically) {
  // Same convergence round, not just same state: run-until-error, then pin
  // the final fingerprint and the round count.
  const EquivCase& c = GetParam();
  Rng topo_rng(77);
  const auto topology = net::Topology::parse("regular:24:4", topo_rng);
  const auto masses = scalar_masses(topology.size(), 5);
  SyncEngineConfig cfg;
  cfg.algorithm = c.algorithm;
  cfg.reducer.pcf_variant = c.pcf_variant;
  cfg.reducer.pf_cached_flow_sum = c.pf_cached;
  cfg.seed = 21;
  cfg.invariants.enabled = true;
  SyncEngine engine(topology, masses, cfg);
  EXPECT_TRUE(engine.run_until_error(1e-9, 2000).reached_target);
  Fnv1a chain;
  add_words(chain, fingerprint(engine, topology));
  expect_matches_golden(observe(c.label, "irregular", chain.value(), engine));
}

INSTANTIATE_TEST_SUITE_P(Algorithms, ArenaEquivalence, ::testing::ValuesIn(equiv_cases()),
                         case_name);

// ---- rejoin slot reuse (regression: rejoin must never grow the arena) ----

TEST(ArenaRejoin, RejoinedNodeReusesItsArenaRows) {
  const auto topology = net::Topology::grid2d(4, 4, /*wrap=*/true);
  const auto masses = scalar_masses(topology.size(), 3);
  SyncEngineConfig cfg;
  cfg.algorithm = core::Algorithm::kPushCancelFlow;
  cfg.seed = 9;
  cfg.invariants.enabled = true;
  cfg.faults.node_crashes.push_back({5.0, 6});
  cfg.faults.node_rejoins.push_back({15.0, 6});
  SyncEngine engine(topology, masses, cfg);

  const core::ArenaFleet* fleet_before = &engine.fleet();
  const std::size_t size_before = fleet_before->size();

  engine.run(12);
  ASSERT_FALSE(engine.node_alive(6));
  engine.run(8);
  ASSERT_TRUE(engine.node_alive(6));

  // Same fleet object, same node count — the node was reset in place.
  EXPECT_EQ(&engine.fleet(), fleet_before);
  EXPECT_EQ(engine.fleet().size(), size_before);
  // The node is live again and gossips from its initial mass.
  EXPECT_EQ(engine.fleet().live_degree(6), topology.neighbors(6).size());
  EXPECT_TRUE(std::isfinite(engine.fleet().estimate(6, 0)));
  engine.run(40);
  EXPECT_LT(engine.max_error(), 1e-6);
}

// Repeated churn/rejoin cycles: the arena never grows, and the state stays
// exactly on the pinned reference through every cycle (rejoin slot reuse is
// not just safe, it is bit-faithful).
TEST(ArenaRejoin, ChurnAndRepeatedRejoinsStayIdenticalToLegacy) {
  const auto topology = net::Topology::grid2d(4, 4, /*wrap=*/true);
  const auto masses = scalar_masses(topology.size(), 8);
  FaultPlan plan;
  plan.churn_fail_prob = 0.02;
  plan.churn_heal_rate = 0.25;
  for (double t = 6.0; t < 60.0; t += 12.0) {
    plan.node_crashes.push_back({t, 10});
    plan.node_rejoins.push_back({t + 6.0, 10});
  }
  SyncEngineConfig cfg;
  cfg.algorithm = core::Algorithm::kFlowUpdating;
  cfg.faults = plan;
  cfg.seed = 31;
  cfg.invariants.enabled = true;
  SyncEngine engine(topology, masses, cfg);
  Fnv1a chain;
  for (std::size_t r = 0; r < 70; ++r) {
    engine.step();
    add_words(chain, fingerprint(engine, topology));
  }
  expect_matches_golden(observe("fu", "churn-rejoin", chain.value(), engine));
}

}  // namespace
}  // namespace pcf::sim
