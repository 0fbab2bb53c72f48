// Thread-count determinism: the sharded arena round loop must be
// BYTE-identical to the serial one at every shard count. Every sender owns
// one wire slot, so sharded sends fill the same wire the serial loop does;
// sharded drains counting-sort the round's delivery sequence by receiver
// (stable, = serial delivery order per receiver). Anything observable — node
// state bits, run counters, oracle error — must not depend on `shards`.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <utility>
#include <vector>

#include "sim/engine_sync.hpp"
#include "test_util.hpp"

namespace pcf::sim {
namespace {

using core::Algorithm;

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

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

SyncEngine make_arena_engine(const net::Topology& topology, Algorithm algorithm,
                             std::size_t shards, const FaultPlan& plan, Delivery delivery) {
  const auto values = test::random_values(topology.size(), 1234);
  std::vector<core::Mass> masses;
  for (std::size_t i = 0; i < values.size(); ++i) {
    masses.push_back(core::Mass::scalar(values[i], 1.0));
  }
  SyncEngineConfig cfg;
  cfg.algorithm = algorithm;
  cfg.faults = plan;
  cfg.seed = 99;
  cfg.delivery = delivery;
  cfg.shards = shards;
  cfg.invariants.enabled = true;
  return SyncEngine(topology, masses, cfg);
}

class ArenaShards : public ::testing::TestWithParam<Algorithm> {};

// Crossing delivery routes every packet through the wire, which is the path
// the sharded send/drain phases actually parallelize.
TEST_P(ArenaShards, CrossingRunIsIdenticalAtEveryShardCount) {
  const auto topology = net::Topology::grid2d(6, 6, /*wrap=*/true);
  SyncEngine serial = make_arena_engine(topology, GetParam(), 1, {}, Delivery::kCrossing);
  serial.run(30);
  const auto expected = fingerprint(serial, topology);
  const auto expected_stats = serial.stats();

  for (const std::size_t shards : {2u, 4u, 8u}) {
    SyncEngine sharded = make_arena_engine(topology, GetParam(), shards, {}, Delivery::kCrossing);
    // Explicit shard counts are honored even above the core count
    // (oversubscription is deterministic by construction).
    EXPECT_GE(sharded.shards(), 1u);
    sharded.run(30);
    EXPECT_EQ(fingerprint(sharded, topology), expected) << "shards=" << shards;
    EXPECT_EQ(sharded.stats().messages_sent, expected_stats.messages_sent);
    EXPECT_EQ(sharded.stats().doubles_sent, expected_stats.doubles_sent);
    EXPECT_EQ(bits_of(sharded.max_error()), bits_of(serial.max_error()));
  }
}

// Scheduled fault events run serially between rounds and change which links
// and nodes the sharded phases read. The merge must stay byte-faithful across
// the transitions.
TEST_P(ArenaShards, LifecycleFaultsStayIdenticalAcrossShardCounts) {
  const auto topology = net::Topology::grid2d(6, 6, /*wrap=*/true);
  FaultPlan plan;
  plan.detection_delay = 1.0;
  plan.link_failures.push_back({5.0, 0, 1});
  plan.node_crashes.push_back({9.0, 7});
  plan.link_heals.push_back({15.0, 0, 1});
  plan.node_rejoins.push_back({20.0, 7});
  SyncEngine serial = make_arena_engine(topology, GetParam(), 1, plan, Delivery::kCrossing);
  serial.run(35);
  const auto expected = fingerprint(serial, topology);

  for (const std::size_t shards : {2u, 4u, 8u}) {
    SyncEngine sharded = make_arena_engine(topology, GetParam(), shards, plan, Delivery::kCrossing);
    sharded.run(35);
    EXPECT_EQ(fingerprint(sharded, topology), expected) << "shards=" << shards;
    EXPECT_EQ(sharded.stats().messages_dropped, serial.stats().messages_dropped);
  }
}

// The churn-recover shape at small n: churn failures and heals, a crash and
// its rejoin under crossing delivery, then every dead link healed and a quiet
// recovery. Churn decides which links are dead while the sharded phases read
// that state, so the dead set itself must match too.
TEST_P(ArenaShards, ChurnCrashAndRecoveryStayIdenticalAcrossShardCounts) {
  Rng topo_rng(5);
  const auto topology = net::Topology::random_regular(120, 6, topo_rng);
  FaultPlan plan;
  plan.detection_delay = 2.0;  // senders keep using a dead link until detected
  plan.churn_fail_prob = 0.01;
  plan.churn_heal_rate = 0.1;
  plan.node_crashes.push_back({10.0, 60});
  plan.node_rejoins.push_back({24.0, 60});
  constexpr std::size_t kChaosRounds = 40;
  constexpr std::size_t kRecoveryRounds = 30;

  struct Outcome {
    std::vector<std::uint64_t> chaos_fingerprint;
    std::vector<std::pair<NodeId, NodeId>> dead_at_chaos_end;
    std::size_t messages_dropped = 0;
    std::vector<std::uint64_t> final_fingerprint;
  };
  const auto run = [&](std::size_t shards) {
    SyncEngine engine = make_arena_engine(topology, GetParam(), shards, plan, Delivery::kCrossing);
    engine.run(kChaosRounds);
    Outcome out;
    out.chaos_fingerprint = fingerprint(engine, topology);
    out.dead_at_chaos_end = engine.dead_links();
    out.messages_dropped = engine.stats().messages_dropped;
    engine.mutable_faults().churn_fail_prob = 0.0;
    engine.mutable_faults().churn_heal_rate = 0.0;
    for (const auto& [a, b] : out.dead_at_chaos_end) engine.heal_link_now(a, b);
    engine.run(kRecoveryRounds);
    EXPECT_TRUE(engine.dead_links().empty());
    out.final_fingerprint = fingerprint(engine, topology);
    return out;
  };

  const Outcome serial = run(1);
  ASSERT_FALSE(serial.dead_at_chaos_end.empty()) << "churn left no dead link to compare";
  ASSERT_GT(serial.messages_dropped, 0u);
  for (const std::size_t shards : {2u, 4u, 8u}) {
    const Outcome sharded = run(shards);
    EXPECT_EQ(sharded.chaos_fingerprint, serial.chaos_fingerprint) << "shards=" << shards;
    EXPECT_EQ(sharded.dead_at_chaos_end, serial.dead_at_chaos_end) << "shards=" << shards;
    EXPECT_EQ(sharded.messages_dropped, serial.messages_dropped) << "shards=" << shards;
    EXPECT_EQ(sharded.final_fingerprint, serial.final_fingerprint) << "shards=" << shards;
  }
}

// Every transport fault draws from the one fault_rng_: loss and flips in a
// serial pass after the sharded sends, duplicates and reordering in a serial
// pass before the sharded drain, each in the order a serial loop draws them.
// State flips draw before the sends. Any reorder probability routes
// sequential delivery through the wire too.
TEST_P(ArenaShards, TransportFaultsStayIdenticalAcrossShardCounts) {
  const auto topology = net::Topology::grid2d(5, 5, /*wrap=*/true);
  FaultPlan plan;
  plan.message_loss_prob = 0.05;
  plan.bit_flip_prob = 0.02;
  plan.state_flip_prob = 0.01;
  plan.duplicate_prob = 0.1;
  plan.reorder_prob = 0.1;
  for (const Delivery delivery : {Delivery::kCrossing, Delivery::kSequential}) {
    SyncEngine serial = make_arena_engine(topology, GetParam(), 1, plan, delivery);
    serial.run(25);
    const auto expected = fingerprint(serial, topology);
    ASSERT_GT(serial.stats().messages_flipped, 0u);
    ASSERT_GT(serial.stats().messages_duplicated, 0u);

    for (const std::size_t shards : {2u, 4u, 8u}) {
      SyncEngine sharded = make_arena_engine(topology, GetParam(), shards, plan, delivery);
      sharded.run(25);
      SCOPED_TRACE(::testing::Message() << "shards=" << shards << " crossing="
                                        << (delivery == Delivery::kCrossing));
      EXPECT_EQ(fingerprint(sharded, topology), expected);
      EXPECT_EQ(sharded.stats().messages_duplicated, serial.stats().messages_duplicated);
      EXPECT_EQ(sharded.stats().messages_dropped, serial.stats().messages_dropped);
      EXPECT_EQ(sharded.stats().messages_flipped, serial.stats().messages_flipped);
      EXPECT_EQ(sharded.stats().state_flips, serial.stats().state_flips);
    }
  }
}

// Immediate sequential delivery never uses the wire, so sharding must be a
// no-op there (the send loop is serial by construction).
TEST_P(ArenaShards, SequentialDeliveryUnaffectedByShards) {
  const auto topology = net::Topology::grid2d(5, 5, /*wrap=*/true);
  SyncEngine serial = make_arena_engine(topology, GetParam(), 1, {}, Delivery::kSequential);
  SyncEngine sharded = make_arena_engine(topology, GetParam(), 8, {}, Delivery::kSequential);
  serial.run(30);
  sharded.run(30);
  EXPECT_EQ(fingerprint(sharded, topology), fingerprint(serial, topology));
}

INSTANTIATE_TEST_SUITE_P(Algorithms, ArenaShards,
                         ::testing::Values(Algorithm::kPushSum, Algorithm::kPushFlow,
                                           Algorithm::kPushCancelFlow,
                                           Algorithm::kFlowUpdating),
                         [](const ::testing::TestParamInfo<Algorithm>& param) {
                           switch (param.param) {
                             case Algorithm::kPushSum: return "ps";
                             case Algorithm::kPushFlow: return "pf";
                             case Algorithm::kPushCancelFlow: return "pcf";
                             case Algorithm::kFlowUpdating: return "fu";
                             case Algorithm::kCorrectionAllreduce: return "corr";
                             case Algorithm::kFuMassHybrid: return "fumd";
                           }
                           return "unknown";
                         });

TEST(ArenaShardsConfig, ZeroMeansHardwareConcurrency) {
  const auto topology = net::Topology::grid2d(4, 4, /*wrap=*/true);
  SyncEngine engine = make_arena_engine(topology, Algorithm::kPushSum, 0, {}, Delivery::kCrossing);
  EXPECT_GE(engine.shards(), 1u);
}

}  // namespace
}  // namespace pcf::sim
