// Property wall for the checkpoint/restore layer (DESIGN.md §8).
//
// The central claim under test: restoring a checkpoint into a freshly
// constructed engine and replaying yields per-round state fingerprints
// bitwise-identical to the uninterrupted run — for every algorithm, both
// engines, and a checkpoint taken at EVERY round of a faulted lifecycle run.
// Plus the
// defensive side: truncated, corrupted, version-skewed and mismatched blobs
// are rejected with CheckpointError, and the on-disk format is pinned with a
// golden hash so accidental layout drift fails here instead of in a user's
// saved checkpoint.
#include "sim/checkpoint.hpp"

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine_async.hpp"
#include "sim/engine_sync.hpp"
#include "sim/reduce.hpp"
#include "sim/session.hpp"
#include "support/binio.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace pcf::sim {
namespace {

using core::Aggregate;
using core::Algorithm;

constexpr Algorithm kAllAlgorithms[] = {Algorithm::kPushSum,          Algorithm::kPushFlow,
                                        Algorithm::kPushCancelFlow,   Algorithm::kFlowUpdating,
                                        Algorithm::kCorrectionAllreduce, Algorithm::kFuMassHybrid};

/// A faulted lifecycle: a cut, a crash, a false positive, a live data update,
/// the rejoin and the heal — every fault-progress cursor the checkpoint
/// serializes moves during the run — plus probabilistic loss/duplication so
/// the RNG stream positions matter too.
FaultPlan lifecycle_plan() {
  FaultPlan plan;
  plan.link_failures.push_back({5.0, 0, 1});
  plan.node_crashes.push_back({8.0, 2});
  plan.false_detects.push_back({10.0, 4, 5, 4.0});
  plan.data_updates.push_back({12.0, 6, core::Mass::scalar(0.25, 0.0)});
  plan.node_rejoins.push_back({16.0, 2});
  plan.link_heals.push_back({18.0, 0, 1});
  plan.message_loss_prob = 0.05;
  plan.duplicate_prob = 0.1;
  return plan;
}

SyncEngine make_sync(const net::Topology& t, Algorithm algorithm, FaultPlan faults,
                     std::uint64_t seed = 3) {
  const auto values = test::random_values(t.size(), seed ^ 0xabcdef);
  const auto masses = masses_from_values(values, Aggregate::kAverage);
  SyncEngineConfig cfg;
  cfg.algorithm = algorithm;
  cfg.faults = std::move(faults);
  cfg.seed = seed;
  cfg.invariants.enabled = true;
  return SyncEngine(t, masses, cfg);
}

AsyncEngine make_async(const net::Topology& t, Algorithm algorithm, FaultPlan faults,
                       std::uint64_t seed = 3) {
  const auto values = test::random_values(t.size(), seed ^ 0xabcdef);
  const auto masses = masses_from_values(values, Aggregate::kAverage);
  AsyncEngineConfig cfg;
  cfg.algorithm = algorithm;
  cfg.faults = std::move(faults);
  cfg.seed = seed;
  cfg.invariants.enabled = true;
  return AsyncEngine(t, masses, cfg);
}

// ------------------------------------------------------------ property wall

TEST(CheckpointSync, EveryRoundRoundTripsBitwise) {
  const auto t = net::Topology::ring(12);
  constexpr std::size_t kRounds = 24;
  for (const Algorithm algorithm : kAllAlgorithms) {
    auto reference = make_sync(t, algorithm, lifecycle_plan());
    std::vector<std::string> blobs{reference.save_checkpoint()};
    std::vector<std::uint64_t> fingerprints{reference.state_fingerprint()};
    for (std::size_t r = 0; r < kRounds; ++r) {
      reference.step();
      blobs.push_back(reference.save_checkpoint());
      fingerprints.push_back(reference.state_fingerprint());
    }
    for (std::size_t c = 0; c <= kRounds; ++c) {
      auto restored = make_sync(t, algorithm, lifecycle_plan());
      restored.restore(blobs[c]);
      ASSERT_EQ(restored.round(), c);
      ASSERT_EQ(restored.state_fingerprint(), fingerprints[c])
          << core::to_string(algorithm) << " restore at round " << c;
      for (std::size_t r = c; r < kRounds; ++r) {
        restored.step();
        ASSERT_EQ(restored.state_fingerprint(), fingerprints[r + 1])
            << core::to_string(algorithm) << " checkpointed at " << c << ", diverged at round "
            << r + 1;
      }
    }
  }
}

TEST(CheckpointSync, LightweightEqualsFullAtRoundBoundaries) {
  // The synchronous wire is empty between rounds, so the two modes differ
  // only in the header's mode byte and restore identically.
  auto engine = make_sync(net::Topology::ring(12), Algorithm::kPushCancelFlow, lifecycle_plan());
  engine.run(10);
  const std::string full = engine.save_checkpoint(CheckpointMode::kFull);
  const std::string light = engine.save_checkpoint(CheckpointMode::kLightweight);
  EXPECT_EQ(full.size(), light.size());
  auto a = make_sync(net::Topology::ring(12), Algorithm::kPushCancelFlow, lifecycle_plan());
  auto b = make_sync(net::Topology::ring(12), Algorithm::kPushCancelFlow, lifecycle_plan());
  a.restore(full);
  b.restore(light);
  a.run(15);
  b.run(15);
  EXPECT_EQ(a.state_fingerprint(), b.state_fingerprint());
}

TEST(CheckpointAsync, FullRestoreContinuesBitwise) {
  const auto t = net::Topology::ring(10);
  for (const Algorithm algorithm : kAllAlgorithms) {
    for (const double at : {0.0, 3.7, 6.0}) {
      auto reference = make_async(t, algorithm, lifecycle_plan());
      reference.run_until(at);
      const std::string blob = reference.save_checkpoint(CheckpointMode::kFull);
      auto restored = make_async(t, algorithm, lifecycle_plan());
      restored.restore(blob);
      ASSERT_EQ(restored.state_fingerprint(), reference.state_fingerprint())
          << core::to_string(algorithm) << " at t=" << at;
      // The full blob carries the event heap verbatim (in-flight packets
      // included), so the continuation is bitwise-identical.
      reference.run_until(14.0);
      restored.run_until(14.0);
      ASSERT_EQ(restored.state_fingerprint(), reference.state_fingerprint())
          << core::to_string(algorithm) << " diverged after restore at t=" << at;
      EXPECT_EQ(restored.estimates(), reference.estimates());
    }
  }
}

TEST(CheckpointAsync, LightweightDropsInFlightAndFlowAlgorithmsSelfHeal) {
  // The state-only blob loses the queued deliveries: it must be strictly
  // smaller mid-flight, and the flow algorithms (absolute mirrors) must still
  // reconverge to the unchanged oracle target after the lossy restore.
  const auto t = net::Topology::ring(10);
  for (const Algorithm algorithm :
       {Algorithm::kPushFlow, Algorithm::kPushCancelFlow, Algorithm::kFlowUpdating}) {
    auto engine = make_async(t, algorithm, FaultPlan{});
    engine.run_until(6.0);
    const std::string full = engine.save_checkpoint(CheckpointMode::kFull);
    const std::string light = engine.save_checkpoint(CheckpointMode::kLightweight);
    EXPECT_LT(light.size(), full.size()) << core::to_string(algorithm);
    auto restored = make_async(t, algorithm, FaultPlan{});
    restored.restore(light);
    EXPECT_TRUE(restored.run_until_error(1e-9, /*deadline=*/400.0))
        << core::to_string(algorithm) << " did not re-converge after a lightweight restore";
  }
}

// ----------------------------------------------------------------- rejection

TEST(CheckpointReject, TruncatedAndTrailingBytes) {
  auto engine = make_sync(net::Topology::ring(12), Algorithm::kPushCancelFlow, lifecycle_plan());
  engine.run(6);
  const std::string blob = engine.save_checkpoint();
  for (const double frac : {0.0, 0.1, 0.5, 0.95}) {
    auto fresh = make_sync(net::Topology::ring(12), Algorithm::kPushCancelFlow, lifecycle_plan());
    const auto cut = static_cast<std::size_t>(static_cast<double>(blob.size()) * frac);
    EXPECT_THROW(fresh.restore(std::string_view(blob).substr(0, cut)), CheckpointError)
        << "accepted a blob truncated to " << cut << " bytes";
  }
  auto fresh = make_sync(net::Topology::ring(12), Algorithm::kPushCancelFlow, lifecycle_plan());
  EXPECT_THROW(fresh.restore(blob + "x"), CheckpointError);
}

TEST(CheckpointReject, BadMagicVersionSkewAndCorruptHash) {
  auto engine = make_sync(net::Topology::ring(12), Algorithm::kPushCancelFlow, lifecycle_plan());
  engine.run(6);
  const std::string blob = engine.save_checkpoint();
  auto fresh = make_sync(net::Topology::ring(12), Algorithm::kPushCancelFlow, lifecycle_plan());

  std::string bad_magic = blob;
  bad_magic[0] = 'X';
  EXPECT_THROW(fresh.restore(bad_magic), CheckpointError);

  // Header layout: magic[8], u32 version at offset 8.
  std::string skewed = blob;
  skewed[8] = static_cast<char>(kCheckpointVersion + 1);
  EXPECT_THROW(fresh.restore(skewed), CheckpointError);

  // Compat hash at offset 40 (magic 8 + version 4 + four u8 tags + seed 8 +
  // nodes 8 + dim 8) — a flipped bit there must read as "wrong engine".
  std::string corrupt = blob;
  corrupt[40] = static_cast<char>(corrupt[40] ^ 0x01);
  EXPECT_THROW(fresh.restore(corrupt), CheckpointError);
}

// The link-set sections (dead, cut, falsely excluded) must hold exactly what
// save writes: topology edges as (min, max) pairs, strictly ascending. These
// blobs cut ring:12 links 4-5 and 7-8, then rewrite the dead-link section
// (the first of the three) in place.

using Link = std::pair<NodeId, NodeId>;

FaultPlan two_cuts_plan() {
  FaultPlan plan;
  plan.link_failures.push_back({2.0, 4, 5});
  plan.link_failures.push_back({2.0, 7, 8});
  return plan;
}

std::string link_set_bytes(std::initializer_list<Link> links) {
  BinaryWriter w;
  w.u64(links.size());
  for (const auto& [a, b] : links) {
    w.u32(a);
    w.u32(b);
  }
  return w.take();
}

std::string patch_dead_links(std::string blob, std::initializer_list<Link> links) {
  const std::string saved = link_set_bytes({{4, 5}, {7, 8}});
  const auto at = blob.find(saved);
  EXPECT_NE(at, std::string::npos) << "dead-link section not found";
  if (at == std::string::npos) return blob;
  return blob.replace(at, saved.size(), link_set_bytes(links));
}

/// Both engines refuse the blob whose dead-link section is `links`, and
/// still restore the unpatched one.
void expect_link_set_rejected(std::initializer_list<Link> links) {
  const auto topology = net::Topology::ring(12);
  auto sync = make_sync(topology, Algorithm::kPushCancelFlow, two_cuts_plan());
  sync.run(4);
  const std::string sync_blob = sync.save_checkpoint();
  auto sync_fresh = make_sync(topology, Algorithm::kPushCancelFlow, two_cuts_plan());
  EXPECT_THROW(sync_fresh.restore(patch_dead_links(sync_blob, links)), CheckpointError);
  EXPECT_NO_THROW(sync_fresh.restore(sync_blob));
  EXPECT_EQ(sync_fresh.dead_links(), (std::vector<Link>{{4, 5}, {7, 8}}));

  auto async = make_async(topology, Algorithm::kPushCancelFlow, two_cuts_plan());
  async.run_until(4.0);
  const std::string async_blob = async.save_checkpoint();
  auto async_fresh = make_async(topology, Algorithm::kPushCancelFlow, two_cuts_plan());
  EXPECT_THROW(async_fresh.restore(patch_dead_links(async_blob, links)), CheckpointError);
  EXPECT_NO_THROW(async_fresh.restore(async_blob));
}

TEST(CheckpointReject, LinkSetPairNotNormalized) {
  // (5, 4) names a real edge, but only as (4, 5) can it be the saved form.
  expect_link_set_rejected({{5, 4}, {7, 8}});
}

TEST(CheckpointReject, LinkSetPairNotATopologyEdge) {
  expect_link_set_rejected({{4, 6}, {7, 8}});
}

TEST(CheckpointReject, LinkSetPairsNotStrictlyAscending) {
  expect_link_set_rejected({{7, 8}, {7, 8}});  // duplicate
  expect_link_set_rejected({{7, 8}, {4, 5}});  // descending
}

// Every node id and link the body carries must name a node and a topology
// link of the restoring engine; otherwise the restore refuses the blob rather
// than handing the engine an index it would fault on at the next step. These
// blobs are real saves with one entry rewritten in place.

/// The bytes the writer emits for `fields`, in order.
template <class... Fields>
std::string bytes_of(const Fields&... fields) {
  BinaryWriter w;
  (w.field(fields), ...);
  return w.take();
}

/// Offset of the one occurrence of `pattern` in `blob` (npos when absent or
/// repeated — a patch must hit exactly the entry it means).
std::size_t find_once(const std::string& blob, const std::string& pattern) {
  const auto at = blob.find(pattern);
  EXPECT_NE(at, std::string::npos) << "pattern not found";
  if (at == std::string::npos || blob.find(pattern, at + 1) != std::string::npos) {
    ADD_FAILURE() << "pattern not unique";
    return std::string::npos;
  }
  return at;
}

std::string patched(std::string blob, const std::string& from, const std::string& to) {
  const auto at = find_once(blob, from);
  if (at == std::string::npos) return blob;
  return blob.replace(at, from.size(), to);
}

constexpr NodeId kFarNode = 1000000;

TEST(CheckpointReject, SyncNoticeNodeOrLinkOutsideTheTopology) {
  // Cuts at round 2 with a 3-round detection delay: at round 4 the four
  // down-notices (4→5, 5→4, 7→8, 8→7), due at 5.0, are pending.
  FaultPlan plan = two_cuts_plan();
  plan.detection_delay = 3.0;
  const auto topology = net::Topology::ring(12);
  auto engine = make_sync(topology, Algorithm::kPushCancelFlow, plan);
  engine.run(4);
  const std::string blob = engine.save_checkpoint();
  const std::string notice = bytes_of(5.0, NodeId{4}, NodeId{5}, false);
  for (const std::string& bad :
       {bytes_of(5.0, kFarNode, NodeId{5}, false), bytes_of(5.0, NodeId{4}, kFarNode, false),
        bytes_of(5.0, NodeId{4}, NodeId{6}, false)}) {
    auto fresh = make_sync(topology, Algorithm::kPushCancelFlow, plan);
    EXPECT_THROW(fresh.restore(patched(blob, notice, bad)), CheckpointError);
  }
  auto fresh = make_sync(topology, Algorithm::kPushCancelFlow, plan);
  EXPECT_NO_THROW(fresh.restore(blob));
}

TEST(CheckpointReject, SyncChurnHealOutsideTheTopology) {
  // With a churn heal rate every cut schedules its own heal; the heal list
  // follows the four pending notices in the body.
  FaultPlan plan = two_cuts_plan();
  plan.detection_delay = 3.0;
  plan.churn_heal_rate = 0.01;
  const auto topology = net::Topology::ring(12);
  auto engine = make_sync(topology, Algorithm::kPushCancelFlow, plan);
  engine.run(4);
  const std::string blob = engine.save_checkpoint();
  const std::string notices = bytes_of(5.0, NodeId{4}, NodeId{5}, false) +
                              bytes_of(5.0, NodeId{5}, NodeId{4}, false) +
                              bytes_of(5.0, NodeId{7}, NodeId{8}, false) +
                              bytes_of(5.0, NodeId{8}, NodeId{7}, false);
  const auto at = find_once(blob, notices);
  ASSERT_NE(at, std::string::npos);
  const std::size_t heals_at = at + notices.size();
  ASSERT_EQ(BinaryReader(std::string_view(blob).substr(heals_at, 8)).u64(), 2u);
  const std::size_t first_a = heals_at + 8 + 8;  // past the count and the heal time
  ASSERT_EQ(blob.substr(first_a, 8), bytes_of(NodeId{4}, NodeId{5}));
  for (const std::string& bad : {bytes_of(kFarNode, NodeId{5}), bytes_of(NodeId{4}, NodeId{6})}) {
    std::string corrupt = blob;
    corrupt.replace(first_a, 8, bad);
    auto fresh = make_sync(topology, Algorithm::kPushCancelFlow, plan);
    EXPECT_THROW(fresh.restore(corrupt), CheckpointError);
  }
  auto fresh = make_sync(topology, Algorithm::kPushCancelFlow, plan);
  EXPECT_NO_THROW(fresh.restore(blob));
}

TEST(CheckpointReject, AsyncEventNodeOrLinkOutsideTheTopology) {
  // Scheduled events wait in the heap as (time, kind, a, b, ...); rewrite
  // one endpoint of each so it names no node or no link of ring:12.
  FaultPlan plan;
  plan.link_failures.push_back({5.0, 0, 1});
  plan.node_crashes.push_back({8.0, 2});
  plan.false_detects.push_back({10.0, 4, 5, 4.0});
  plan.link_heals.push_back({18.0, 0, 1});
  plan.detection_delay = 2.0;
  const auto topology = net::Topology::ring(12);
  auto early = make_async(topology, Algorithm::kPushCancelFlow, plan);
  early.run_until(3.0);
  const std::string scheduled = early.save_checkpoint();
  auto late = make_async(topology, Algorithm::kPushCancelFlow, plan);
  late.run_until(6.0);  // the 0-1 cut fired at 5.0; its detections are due at 7.0
  const std::string detecting = late.save_checkpoint();

  const auto event = [](double time, std::uint8_t kind, NodeId a, NodeId b) {
    return bytes_of(time, kind, a, b);
  };
  struct Case {
    const std::string* blob;
    std::string from;
    std::string to;
  };
  const Case cases[] = {
      {&scheduled, event(5.0, 2, 0, 1), event(5.0, 2, 0, 5)},      // link failure
      {&scheduled, event(8.0, 3, 2, 0), event(8.0, 3, kFarNode, 0)},  // crash
      {&scheduled, event(10.0, 9, 4, 5), event(10.0, 9, 4, 7)},    // false detect
      {&scheduled, event(18.0, 6, 0, 1), event(18.0, 6, 0, 6)},    // link heal
      {&detecting, event(7.0, 4, 0, 1), event(7.0, 4, 0, kFarNode)},  // detect
  };
  for (const Case& c : cases) {
    auto fresh = make_async(topology, Algorithm::kPushCancelFlow, plan);
    EXPECT_THROW(fresh.restore(patched(*c.blob, c.from, c.to)), CheckpointError);
  }
  for (const std::string* blob : {&scheduled, &detecting}) {
    auto fresh = make_async(topology, Algorithm::kPushCancelFlow, plan);
    EXPECT_NO_THROW(fresh.restore(*blob));
  }
}

TEST(CheckpointReject, AsyncHealEpochAndArrivalKeysOutsideTheTopology) {
  // A 0-1 cut healed at 2.0 leaves one heal epoch keyed (0, 1); the FIFO
  // clamps follow it, keyed by directed link.
  FaultPlan plan;
  plan.link_failures.push_back({1.0, 0, 1});
  plan.link_heals.push_back({2.0, 0, 1});
  const auto topology = net::Topology::ring(12);
  auto engine = make_async(topology, Algorithm::kPushCancelFlow, plan);
  engine.run_until(4.0);
  const std::string blob = engine.save_checkpoint();
  // The empty false-exclusion set, then one heal epoch on (0, 1).
  const std::string epochs = bytes_of(std::uint64_t{0}, std::uint64_t{1}, NodeId{0}, NodeId{1});
  const auto at = find_once(blob, epochs);
  ASSERT_NE(at, std::string::npos);
  const std::size_t key_at = at + 16;
  for (const std::string& bad : {bytes_of(NodeId{1}, NodeId{0}), bytes_of(NodeId{0}, NodeId{5})}) {
    std::string corrupt = blob;
    corrupt.replace(key_at, 8, bad);
    auto fresh = make_async(topology, Algorithm::kPushCancelFlow, plan);
    EXPECT_THROW(fresh.restore(corrupt), CheckpointError);
  }
  const std::size_t arrivals_at = key_at + 8 + 8;  // past the key and the epoch seq
  ASSERT_GT(BinaryReader(std::string_view(blob).substr(arrivals_at, 8)).u64(), 0u);
  const std::size_t first_key = arrivals_at + 8;
  const NodeId from = BinaryReader(std::string_view(blob).substr(first_key, 4)).u32();
  std::string corrupt = blob;
  corrupt.replace(first_key + 4, 4, bytes_of(NodeId{(from + 6) % 12}));  // across the ring
  auto fresh = make_async(topology, Algorithm::kPushCancelFlow, plan);
  EXPECT_THROW(fresh.restore(corrupt), CheckpointError);
  EXPECT_NO_THROW(fresh.restore(blob));
}

TEST(CheckpointReject, MismatchedEngineAlgorithmSeedTopologyAndKind) {
  const auto t = net::Topology::ring(12);
  auto engine = make_sync(t, Algorithm::kPushCancelFlow, lifecycle_plan());
  engine.run(6);
  const std::string blob = engine.save_checkpoint();

  auto wrong_algorithm = make_sync(t, Algorithm::kPushFlow, lifecycle_plan());
  EXPECT_THROW(wrong_algorithm.restore(blob), CheckpointError);

  auto wrong_seed = make_sync(t, Algorithm::kPushCancelFlow, lifecycle_plan(), 99);
  EXPECT_THROW(wrong_seed.restore(blob), CheckpointError);

  auto wrong_topology =
      make_sync(net::Topology::ring(13), Algorithm::kPushCancelFlow, lifecycle_plan());
  EXPECT_THROW(wrong_topology.restore(blob), CheckpointError);

  // A faultless engine differs in the fault schedule — the compat hash covers
  // the scheduled events, so the restore refuses.
  auto wrong_faults = make_sync(t, Algorithm::kPushCancelFlow, FaultPlan{});
  EXPECT_THROW(wrong_faults.restore(blob), CheckpointError);

  // Sync blob into an async engine (and vice versa): the kind byte refuses.
  auto async_engine = make_async(net::Topology::ring(12), Algorithm::kPushCancelFlow, FaultPlan{});
  EXPECT_THROW(async_engine.restore(blob), CheckpointError);
  const std::string async_blob = async_engine.save_checkpoint();
  auto sync_fresh = make_sync(t, Algorithm::kPushCancelFlow, lifecycle_plan());
  EXPECT_THROW(sync_fresh.restore(async_blob), CheckpointError);
}

TEST(CheckpointReject, RetiredPerObjectLayoutIsRefused) {
  // Header byte 15 is engine_mode (magic 8 + version 4 + the kind, mode and
  // algorithm tags). Both engines write the arena layout (1); a blob tagged
  // 0 carries rows of the retired per-object layout, which must be refused
  // before any state is touched rather than parsed as arena rows.
  constexpr std::size_t kEngineModeOffset = 15;
  auto async_engine = make_async(net::Topology::ring(10), Algorithm::kPushCancelFlow,
                                 lifecycle_plan());
  async_engine.run_until(3.0);
  std::string async_blob = async_engine.save_checkpoint();
  ASSERT_EQ(peek_checkpoint(async_blob).engine_mode, 1);
  async_blob[kEngineModeOffset] = 0;
  auto async_fresh = make_async(net::Topology::ring(10), Algorithm::kPushCancelFlow,
                                lifecycle_plan());
  const std::uint64_t async_before = async_fresh.state_fingerprint();
  EXPECT_THROW(async_fresh.restore(async_blob), CheckpointError);
  EXPECT_EQ(async_fresh.state_fingerprint(), async_before);

  const auto ring12 = net::Topology::ring(12);
  auto sync_engine = make_sync(ring12, Algorithm::kPushCancelFlow, lifecycle_plan());
  sync_engine.run(6);
  std::string sync_blob = sync_engine.save_checkpoint();
  ASSERT_EQ(peek_checkpoint(sync_blob).engine_mode, 1);
  sync_blob[kEngineModeOffset] = 0;
  auto sync_fresh = make_sync(ring12, Algorithm::kPushCancelFlow, lifecycle_plan());
  const std::uint64_t sync_before = sync_fresh.state_fingerprint();
  EXPECT_THROW(sync_fresh.restore(sync_blob), CheckpointError);
  EXPECT_EQ(sync_fresh.state_fingerprint(), sync_before);
}

TEST(CheckpointReject, MismatchedAlgorithmAcrossRoster) {
  // The roster additions must be just as un-confusable as the original four:
  // every pair of distinct algorithms refuses to cross-restore.
  const auto t = net::Topology::ring(12);
  for (const Algorithm saved : kAllAlgorithms) {
    auto engine = make_sync(t, saved, lifecycle_plan());
    engine.run(4);
    const std::string blob = engine.save_checkpoint();
    for (const Algorithm restored : kAllAlgorithms) {
      auto fresh = make_sync(t, restored, lifecycle_plan());
      if (restored == saved) {
        EXPECT_NO_THROW(fresh.restore(blob));
      } else {
        EXPECT_THROW(fresh.restore(blob), CheckpointError)
            << core::to_string(saved) << " blob restored into a " << core::to_string(restored)
            << " engine";
      }
    }
  }
}

TEST(CheckpointReject, MismatchedTreeKind) {
  // An explicitly requested tree shape is part of the construction inputs:
  // restoring its blob into an engine with a different (or default-auto)
  // shape must refuse. kAuto itself is deliberately NOT hashed, so blobs
  // saved before the roster existed keep restoring.
  const auto t = net::Topology::ring(12);
  const auto values = test::random_values(t.size(), 3 ^ 0xabcdef);
  const auto masses = masses_from_values(values, Aggregate::kAverage);
  const auto engine_with = [&](net::TreeKind kind) {
    SyncEngineConfig cfg;
    cfg.algorithm = Algorithm::kCorrectionAllreduce;
    cfg.seed = 3;
    cfg.invariants.enabled = true;
    cfg.reducer.tree_kind = kind;
    return SyncEngine(t, masses, cfg);
  };
  auto bfs = engine_with(net::TreeKind::kBfs);
  bfs.run(4);
  const std::string blob = bfs.save_checkpoint();
  auto chain = engine_with(net::TreeKind::kChain);
  EXPECT_THROW(chain.restore(blob), CheckpointError);
  auto auto_kind = engine_with(net::TreeKind::kAuto);
  EXPECT_THROW(auto_kind.restore(blob), CheckpointError);
  auto bfs_again = engine_with(net::TreeKind::kBfs);
  EXPECT_NO_THROW(bfs_again.restore(blob));
}

// ------------------------------------------------------------------- header

TEST(CheckpointPeek, ReportsHeaderFieldsWithoutAnEngine) {
  auto engine = make_sync(net::Topology::ring(12), Algorithm::kPushCancelFlow, lifecycle_plan(), 7);
  engine.run(9);
  const CheckpointInfo info = peek_checkpoint(engine.save_checkpoint(CheckpointMode::kFull));
  EXPECT_EQ(info.version, kCheckpointVersion);
  EXPECT_EQ(info.engine_kind, 1);  // sync
  EXPECT_EQ(info.mode, CheckpointMode::kFull);
  EXPECT_EQ(info.algorithm, static_cast<std::uint8_t>(Algorithm::kPushCancelFlow));
  EXPECT_EQ(info.engine_mode, 1);  // the arena layout, the only one
  EXPECT_EQ(info.seed, 7u);
  EXPECT_EQ(info.nodes, 12u);
  EXPECT_EQ(info.dim, 1u);
  EXPECT_EQ(info.position, 9.0);
  EXPECT_THROW((void)peek_checkpoint("not a checkpoint"), CheckpointError);
}

// ------------------------------------------------------------- golden format

TEST(CheckpointGolden, FormatHashIsPinned) {
  // FNV-1a over a canonical blob (ring:8, PCF, arena, seed 7, 10 faulted
  // rounds). Integers are written little-endian byte by byte and doubles as
  // IEEE-754 bits, so this hash is platform-independent. If it changes, the
  // on-disk format drifted: bump kCheckpointVersion (old blobs must be
  // rejected, not misread) and re-pin.
  auto engine = make_sync(net::Topology::ring(8), Algorithm::kPushCancelFlow, lifecycle_plan(), 7);
  engine.run(10);
  const std::string blob = engine.save_checkpoint(CheckpointMode::kFull);
  const std::uint64_t h = fnv1a(blob);
  EXPECT_EQ(h, 0xe78cbdad7b71a3a0ULL) << "checkpoint format drifted (blob is " << blob.size()
                       << " bytes) — bump kCheckpointVersion and re-pin this hash";
}

/// A PCF session on ring:8 under message loss, fresh from construction.
std::vector<core::Values> session_inputs(double bump = 0.0) {
  const auto values = test::random_values(8, 7);
  std::vector<core::Values> out;
  for (const double v : values) out.push_back(core::Values{v});
  out[3][0] += bump;
  return out;
}

ReductionSession make_session() {
  SessionOptions options;
  options.seed = 7;
  options.target_accuracy = 1e-9;
  options.max_rounds_per_query = 200;
  options.faults.message_loss_prob = 0.05;
  return ReductionSession(net::Topology::ring(8), session_inputs(), options);
}

/// The session blob the pin table covers: after two queries the prelude
/// carries the query count, changed inputs and rejoin counts ahead of the
/// engine blob.
std::string canonical_session_blob() {
  auto session = make_session();
  (void)session.query(session_inputs());
  (void)session.query(session_inputs(0.5));
  return session.save_checkpoint(CheckpointMode::kFull);
}

TEST(CheckpointGolden, RosterCodecHashesArePinned) {
  // FNV-1a of every blob shape the checkpoint layer writes: all six
  // algorithms × {sync, async} × {full, light} under the faulted lifecycle
  // (ring:8, seed 7; sync after 10 rounds, async at t = 5.5 with packets in
  // flight), plus one session blob. A changed hash means the on-disk layout
  // drifted: bump kCheckpointVersion (old blobs must be rejected, not
  // misread) and re-pin.
  struct Pin {
    Algorithm algorithm;
    std::uint64_t sync_full;
    std::uint64_t sync_light;
    std::uint64_t async_full;
    std::uint64_t async_light;
  };
  constexpr Pin kPins[] = {
      {Algorithm::kPushSum, 0x1dd6d3d7eea77d33ULL, 0xa3db99ae4eb1b86aULL,
       0xac6faed27fea3fc1ULL, 0x86c0a56e88a0b54bULL},
      {Algorithm::kPushFlow, 0x705fdf053a674d0cULL, 0xf9d5f33393551415ULL,
       0x8c7b234a5b005674ULL, 0x4c05fdd930c2181dULL},
      {Algorithm::kPushCancelFlow, 0xe78cbdad7b71a3a0ULL, 0x24c13d57df9326a9ULL,
       0xdc0593789fa5746cULL, 0xa0a83306b5f9a603ULL},
      {Algorithm::kFlowUpdating, 0x3d4b3ba50435ec04ULL, 0xcd6439d431e2e0d9ULL,
       0x789324326cd067c4ULL, 0xa383c59f15af9d70ULL},
      {Algorithm::kCorrectionAllreduce, 0xfba24c4c28a8719dULL, 0xf314cae3e528f0c0ULL,
       0x730711a37a6f7caaULL, 0x3dbc6a5e82130ac6ULL},
      {Algorithm::kFuMassHybrid, 0x3e780b32dba3616eULL, 0xf1abf07e623b3763ULL,
       0x25333ec518c54334ULL, 0xaf527c5348ab72f4ULL},
  };
  const auto t = net::Topology::ring(8);
  for (const Pin& pin : kPins) {
    const std::string name(core::to_string(pin.algorithm));
    auto sync = make_sync(t, pin.algorithm, lifecycle_plan(), 7);
    sync.run(10);
    EXPECT_EQ(fnv1a(sync.save_checkpoint(CheckpointMode::kFull)), pin.sync_full)
        << name << " sync full";
    EXPECT_EQ(fnv1a(sync.save_checkpoint(CheckpointMode::kLightweight)), pin.sync_light)
        << name << " sync light";
    auto async = make_async(t, pin.algorithm, lifecycle_plan(), 7);
    async.run_until(5.5);
    const std::string async_full = async.save_checkpoint(CheckpointMode::kFull);
    const std::string async_light = async.save_checkpoint(CheckpointMode::kLightweight);
    ASSERT_LT(async_light.size(), async_full.size()) << name << ": no packet in flight at t=5.5";
    EXPECT_EQ(fnv1a(async_full), pin.async_full) << name << " async full";
    EXPECT_EQ(fnv1a(async_light), pin.async_light) << name << " async light";
  }
  EXPECT_EQ(fnv1a(canonical_session_blob()), 0xf422f1691cea1f82ULL) << "session";
}

TEST(CheckpointGolden, AsyncStateFingerprintsArePinned) {
  // The async engine's reference trajectory per algorithm under the faulted
  // lifecycle: the FNV-1a chain of state_fingerprint() sampled at every
  // integer time up to 20, plus the delivery count. Captured from the
  // per-object reducer layout; any state layout must reproduce it bit for bit.
  struct AsyncGolden {
    Algorithm algorithm;
    std::uint64_t chain;
    std::size_t delivered;
  };
  constexpr AsyncGolden kGolden[] = {
      {Algorithm::kPushSum, 0xf835a415e36a0c4dULL, 178},
      {Algorithm::kPushFlow, 0xaf9b56475a2eb6f9ULL, 178},
      {Algorithm::kPushCancelFlow, 0x8cbf87095f726311ULL, 178},
      {Algorithm::kFlowUpdating, 0xfa8509c5ad69678dULL, 178},
      {Algorithm::kCorrectionAllreduce, 0x19a278526927e3e6ULL, 178},
      {Algorithm::kFuMassHybrid, 0xc0ad10cf94600cd1ULL, 178},
  };
  for (const AsyncGolden& golden : kGolden) {
    auto engine = make_async(net::Topology::ring(10), golden.algorithm, lifecycle_plan());
    Fnv1a chain;
    for (int t = 1; t <= 20; ++t) {
      engine.run_until(static_cast<double>(t));
      chain.add(engine.state_fingerprint());
    }
    EXPECT_EQ(chain.value(), golden.chain) << core::to_string(golden.algorithm);
    EXPECT_EQ(engine.messages_delivered(), golden.delivered) << core::to_string(golden.algorithm);
  }
}

// ------------------------------------------------------------ mutation fuzz

/// Restores mutations of `blob` — every truncation prefix, then `flips`
/// single-byte XORs at offsets drawn from Rng(seed) — each into a fresh
/// target from `make`. A restore must succeed or throw CheckpointError; any
/// other exception fails the test. Returns how many flips were accepted.
template <class Make>
std::size_t fuzz_restore(const std::string& blob, std::size_t flips, std::uint64_t seed,
                         const Make& make) {
  const auto restores = [&](std::string_view mutated, const char* what, std::size_t at) {
    auto target = make();
    try {
      target.restore(mutated);
      return true;
    } catch (const CheckpointError&) {
      return false;
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << " at byte " << at << " threw a non-checkpoint error: " << e.what();
    } catch (...) {
      ADD_FAILURE() << what << " at byte " << at << " threw a non-exception";
    }
    return false;
  };
  EXPECT_TRUE(restores(blob, "the unmutated blob", 0));
  for (std::size_t cut = 0; cut < blob.size(); ++cut) {
    EXPECT_FALSE(restores(std::string_view(blob).substr(0, cut), "a prefix", cut));
  }
  Rng rng(seed);
  std::size_t accepted = 0;
  for (std::size_t f = 0; f < flips; ++f) {
    std::string mutated = blob;
    const auto at = static_cast<std::size_t>(rng.below(blob.size()));
    mutated[at] = static_cast<char>(mutated[at] ^ static_cast<char>(1 + rng.below(255)));
    if (restores(mutated, "a byte flip", at)) ++accepted;
  }
  return accepted;
}

constexpr std::size_t kFuzzFlips = 1500;

TEST(CheckpointFuzz, SyncMutationsRestoreOrThrowCheckpointError) {
  const auto t = net::Topology::ring(8);
  auto engine = make_sync(t, Algorithm::kPushCancelFlow, lifecycle_plan(), 7);
  engine.run(10);
  const std::size_t accepted =
      fuzz_restore(engine.save_checkpoint(), kFuzzFlips, 0xf022,
                   [&] { return make_sync(t, Algorithm::kPushCancelFlow, lifecycle_plan(), 7); });
  // Flipped state doubles are valid state: the fuzz reaches past the header.
  EXPECT_GT(accepted, 0u);
}

TEST(CheckpointFuzz, AsyncMutationsRestoreOrThrowCheckpointError) {
  const auto t = net::Topology::ring(8);
  auto engine = make_async(t, Algorithm::kPushCancelFlow, lifecycle_plan(), 7);
  engine.run_until(5.5);  // packets in flight: the event list carries payloads
  const std::size_t accepted =
      fuzz_restore(engine.save_checkpoint(CheckpointMode::kFull), kFuzzFlips, 0xf023,
                   [&] { return make_async(t, Algorithm::kPushCancelFlow, lifecycle_plan(), 7); });
  EXPECT_GT(accepted, 0u);
}

TEST(CheckpointFuzz, SessionMutationsRestoreOrThrowCheckpointError) {
  const std::size_t accepted =
      fuzz_restore(canonical_session_blob(), kFuzzFlips, 0xf024, make_session);
  EXPECT_GT(accepted, 0u);
}

}  // namespace
}  // namespace pcf::sim
