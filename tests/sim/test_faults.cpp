#include "sim/faults.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>

#include "support/check.hpp"

namespace pcf::sim {
namespace {

core::Packet sample_packet() {
  core::Packet p;
  p.a = core::Mass(core::Values{1.0, 2.0}, 3.0);
  p.b = core::Mass(core::Values{4.0, 5.0}, 6.0);
  return p;
}

TEST(FlipRandomBit, ChangesExactlyOneDouble) {
  Rng rng(1);
  for (int trial = 0; trial < 200; ++trial) {
    const auto original = sample_packet();
    auto flipped = sample_packet();
    flip_random_bit(flipped, rng, /*any_bit=*/false);
    int diffs = 0;
    for (std::size_t k = 0; k < 2; ++k) {
      if (flipped.a.s[k] != original.a.s[k]) ++diffs;
      if (flipped.b.s[k] != original.b.s[k]) ++diffs;
    }
    if (flipped.a.w != original.a.w) ++diffs;
    if (flipped.b.w != original.b.w) ++diffs;
    EXPECT_EQ(diffs, 1) << "trial " << trial;
  }
}

TEST(FlipRandomBit, MantissaSignOnlyStaysFinite) {
  Rng rng(2);
  for (int trial = 0; trial < 2000; ++trial) {
    auto p = sample_packet();
    flip_random_bit(p, rng, /*any_bit=*/false);
    for (double v : p.a.s) EXPECT_TRUE(std::isfinite(v));
    for (double v : p.b.s) EXPECT_TRUE(std::isfinite(v));
    EXPECT_TRUE(std::isfinite(p.a.w));
    EXPECT_TRUE(std::isfinite(p.b.w));
  }
}

TEST(FlipRandomBit, SignFlipsDoOccur) {
  Rng rng(3);
  bool saw_sign_flip = false;
  for (int trial = 0; trial < 2000 && !saw_sign_flip; ++trial) {
    auto p = sample_packet();
    flip_random_bit(p, rng, /*any_bit=*/false);
    saw_sign_flip = p.a.s[0] == -1.0 || p.a.s[1] == -2.0 || p.a.w == -3.0 ||
                    p.b.s[0] == -4.0 || p.b.s[1] == -5.0 || p.b.w == -6.0;
  }
  EXPECT_TRUE(saw_sign_flip);
}

TEST(FlipRandomBit, AnyBitCanProduceHugeValues) {
  Rng rng(4);
  double worst = 0.0;
  for (int trial = 0; trial < 2000; ++trial) {
    auto p = sample_packet();
    flip_random_bit(p, rng, /*any_bit=*/true);
    for (double v : p.a.s) {
      if (std::isfinite(v)) worst = std::max(worst, std::fabs(v));
    }
  }
  EXPECT_GT(worst, 1e30);  // exponent-bit flips reached
}

TEST(FlipRandomBit, IsDeterministicGivenRngState) {
  Rng a(7), b(7);
  auto pa = sample_packet();
  auto pb = sample_packet();
  flip_random_bit(pa, a, false);
  flip_random_bit(pb, b, false);
  EXPECT_EQ(pa.a, pb.a);
  EXPECT_EQ(pa.b, pb.b);
}

TEST(FlipRandomBit, SlotAndBitDistributionIsUniformWithinBounds) {
  // The corruption model promises a uniformly random victim double (all six
  // slots of a dim-2 packet) and, in default mode, bits confined to the
  // mantissa (0..51) plus the sign (63) with uniform weight 1/53 each.
  Rng rng(99);
  constexpr int kTrials = 6000;
  std::array<int, 6> slot_hits{};
  std::array<int, 64> bit_hits{};
  for (int trial = 0; trial < kTrials; ++trial) {
    core::Packet clean = sample_packet();
    core::Packet p = sample_packet();
    flip_random_bit(p, rng, /*any_bit=*/false);
    const std::array<std::pair<double, double>, 6> pairs{{
        {clean.a.s[0], p.a.s[0]},
        {clean.a.s[1], p.a.s[1]},
        {clean.a.w, p.a.w},
        {clean.b.s[0], p.b.s[0]},
        {clean.b.s[1], p.b.s[1]},
        {clean.b.w, p.b.w},
    }};
    for (std::size_t slot = 0; slot < pairs.size(); ++slot) {
      std::uint64_t before = 0, after = 0;
      std::memcpy(&before, &pairs[slot].first, sizeof before);
      std::memcpy(&after, &pairs[slot].second, sizeof after);
      const std::uint64_t diff = before ^ after;
      if (diff == 0) continue;
      ++slot_hits[slot];
      ASSERT_EQ(diff & (diff - 1), 0u) << "more than one bit flipped";
      int bit = 0;
      while (((diff >> bit) & 1u) == 0) ++bit;
      ASSERT_TRUE(bit <= 51 || bit == 63) << "exponent bit " << bit << " in default mode";
      ++bit_hits[static_cast<std::size_t>(bit)];
    }
  }
  // Each slot expects kTrials/6 = 1000 hits; allow a wide +-35% band (the
  // binomial sigma is ~29, so this is > 10 sigma — deterministic seed, no
  // flakes, still catches gross bias or a dead slot).
  for (std::size_t slot = 0; slot < slot_hits.size(); ++slot) {
    EXPECT_GT(slot_hits[slot], 650) << "slot " << slot;
    EXPECT_LT(slot_hits[slot], 1350) << "slot " << slot;
  }
  // Each of the 53 eligible bits expects kTrials/53 ~ 113 hits.
  int eligible_bits_hit = 0;
  for (int bit = 0; bit < 64; ++bit) {
    if (bit <= 51 || bit == 63) {
      if (bit_hits[static_cast<std::size_t>(bit)] > 0) ++eligible_bits_hit;
      EXPECT_LT(bit_hits[static_cast<std::size_t>(bit)], 250) << "bit " << bit;
    } else {
      EXPECT_EQ(bit_hits[static_cast<std::size_t>(bit)], 0) << "bit " << bit;
    }
  }
  EXPECT_GE(eligible_bits_hit, 50);  // near-complete coverage of the 53 bits
}

TEST(FaultPlan, EmptyDetection) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  plan.message_loss_prob = 0.1;
  EXPECT_FALSE(plan.empty());
  plan = {};
  plan.link_failures.push_back({1.0, 0, 1});
  EXPECT_FALSE(plan.empty());
  plan = {};
  plan.node_crashes.push_back({1.0, 0});
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlan, EmptyDetectionCoversRecoveryAndDeliveryKnobs) {
  FaultPlan plan;
  plan.duplicate_prob = 0.1;
  EXPECT_FALSE(plan.empty());
  plan = {};
  plan.reorder_prob = 0.1;
  EXPECT_FALSE(plan.empty());
  plan = {};
  plan.churn_fail_prob = 0.01;
  EXPECT_FALSE(plan.empty());
  plan = {};
  plan.link_heals.push_back({5.0, 0, 1});
  EXPECT_FALSE(plan.empty());
  plan = {};
  plan.node_rejoins.push_back({5.0, 2});
  EXPECT_FALSE(plan.empty());
  plan = {};
  plan.false_detects.push_back({5.0, 0, 1, 2.0});
  EXPECT_FALSE(plan.empty());
  // Pure tuning knobs with no faults attached do not make the plan non-empty.
  plan = {};
  plan.detection_delay = 3.0;
  plan.reorder_jitter = 1.0;
  plan.churn_heal_rate = 0.5;
  EXPECT_TRUE(plan.empty());
}

TEST(FaultPlan, LatestEventTimeSpansAllListsAndClearDelays) {
  FaultPlan plan;
  EXPECT_EQ(plan.latest_event_time(), 0.0);
  plan.link_failures.push_back({40.0, 0, 1});
  plan.node_crashes.push_back({55.0, 2});
  plan.data_updates.push_back({60.0, 3, {}});
  plan.link_heals.push_back({120.0, 0, 1});
  plan.node_rejoins.push_back({130.0, 2});
  EXPECT_EQ(plan.latest_event_time(), 130.0);
  // A false detect extends to its clear time.
  plan.false_detects.push_back({125.0, 0, 1, 30.0});
  EXPECT_EQ(plan.latest_event_time(), 155.0);
  // Churn is unscheduled and contributes nothing.
  plan.churn_fail_prob = 0.5;
  EXPECT_EQ(plan.latest_event_time(), 155.0);
}

TEST(FaultPlan, ValidationNamesOnlyNodesAndLinksOfTheTopology) {
  const auto ring = net::Topology::ring(6);
  FaultPlan ok;
  ok.link_failures.push_back({1.0, 0, 1});
  ok.node_crashes.push_back({1.0, 5});
  ok.data_updates.push_back({1.0, 2, core::Mass::scalar(1.0, 0.0)});
  ok.link_heals.push_back({2.0, 1, 0});
  ok.node_rejoins.push_back({2.0, 5});
  ok.false_detects.push_back({1.0, 3, 4, 0.0});
  EXPECT_NO_THROW(validate_fault_plan(ok, ring));

  // Each spoiled copy differs from `ok` in one event.
  const auto expect_rejected = [&](auto&& spoil) {
    FaultPlan bad = ok;
    spoil(bad);
    EXPECT_THROW(validate_fault_plan(bad, ring), ContractViolation);
  };
  expect_rejected([](FaultPlan& p) { p.link_failures[0].b = 3; });  // not a link
  expect_rejected([](FaultPlan& p) { p.node_crashes[0].node = 6; });
  expect_rejected([](FaultPlan& p) { p.data_updates[0].node = 6; });
  expect_rejected([](FaultPlan& p) { p.link_heals[0].a = 4; });
  expect_rejected([](FaultPlan& p) { p.node_rejoins[0].node = 100; });
  expect_rejected([](FaultPlan& p) { p.false_detects[0].b = 0; });
  expect_rejected([](FaultPlan& p) { p.false_detects[0].clear_delay = -1.0; });
}

TEST(FaultPlan, FieldCountIsPinned) {
  // Structured bindings require naming EVERY field: this stops compiling the
  // moment FaultPlan grows or shrinks. If you are here because of a compile
  // error, first thread the new field through every consumer listed in the
  // NOTE above the struct in sim/faults.hpp, then extend this binding.
  FaultPlan plan;
  const auto& [message_loss_prob, bit_flip_prob, bit_flip_any_bit, state_flip_prob,
               detection_delay, duplicate_prob, reorder_prob, reorder_jitter, churn_fail_prob,
               churn_heal_rate, link_failures, node_crashes, data_updates, link_heals,
               node_rejoins, false_detects] = plan;
  EXPECT_EQ(message_loss_prob, 0.0);
  EXPECT_EQ(bit_flip_prob, 0.0);
  EXPECT_FALSE(bit_flip_any_bit);
  EXPECT_EQ(state_flip_prob, 0.0);
  EXPECT_EQ(detection_delay, 0.0);
  EXPECT_EQ(duplicate_prob, 0.0);
  EXPECT_EQ(reorder_prob, 0.0);
  EXPECT_EQ(reorder_jitter, 0.5);
  EXPECT_EQ(churn_fail_prob, 0.0);
  EXPECT_EQ(churn_heal_rate, 0.0);
  EXPECT_TRUE(link_failures.empty());
  EXPECT_TRUE(node_crashes.empty());
  EXPECT_TRUE(data_updates.empty());
  EXPECT_TRUE(link_heals.empty());
  EXPECT_TRUE(node_rejoins.empty());
  EXPECT_TRUE(false_detects.empty());
}

}  // namespace
}  // namespace pcf::sim
