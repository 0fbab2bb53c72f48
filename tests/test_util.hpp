// Shared helpers for the pcflow test suite.
#pragma once

#include <array>
#include <vector>

#include "core/arena.hpp"
#include "core/mass.hpp"
#include "net/topology.hpp"
#include "sim/engine_sync.hpp"
#include "support/rng.hpp"

namespace pcf::test {

/// Scalar initial values drawn uniformly from [0, 1) with a fixed seed.
inline std::vector<double> random_values(std::size_t n, std::uint64_t seed = 42) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform();
  return v;
}

/// Initial masses for the paper's bus-network case study (Section II-B):
/// v_1 = n+1, v_i = 1 otherwise; unit weights (synchronous averaging).
inline std::vector<core::Mass> bus_case_study_masses(std::size_t n) {
  std::vector<core::Mass> masses;
  masses.reserve(n);
  masses.push_back(core::Mass::scalar(static_cast<double>(n) + 1.0, 1.0));
  for (std::size_t i = 1; i < n; ++i) masses.push_back(core::Mass::scalar(1.0, 1.0));
  return masses;
}

/// Flow slot 0 of node i toward neighbor j (zero-dimensional when i stores
/// no flow toward j).
inline core::Mass flow_toward(const core::ArenaFleet& fleet, net::NodeId i, net::NodeId j) {
  std::array<core::Mass, core::ArenaFleet::kMaxFlowSlots> slots{};
  (void)fleet.flows_toward(i, j, slots);
  return slots[0];
}

/// Builds an engine over random scalar values.
inline sim::SyncEngine make_engine(const net::Topology& topology, core::Algorithm algorithm,
                                   core::Aggregate aggregate, std::uint64_t seed = 1,
                                   sim::FaultPlan faults = {},
                                   core::ReducerConfig reducer = {}) {
  const auto values = random_values(topology.size(), seed ^ 0xabcdef);
  std::vector<core::Mass> masses;
  for (std::size_t i = 0; i < values.size(); ++i) {
    masses.push_back(core::Mass::scalar(values[i], core::initial_weight(aggregate, i)));
  }
  sim::SyncEngineConfig cfg;
  cfg.algorithm = algorithm;
  cfg.faults = std::move(faults);
  cfg.seed = seed;
  cfg.reducer = reducer;
  // The runtime invariant checkers double every engine-based test as an
  // invariant test (ctest also sets PCF_CHECK_INVARIANTS=1; this makes the
  // suite safe to run bare too).
  cfg.invariants.enabled = true;
  return sim::SyncEngine(topology, masses, cfg);
}

/// Sum of local masses over all live nodes — the conserved quantity.
inline core::Mass total_mass(const sim::SyncEngine& engine) {
  core::Mass total;
  bool first = true;
  for (net::NodeId i = 0; i < engine.size(); ++i) {
    if (!engine.node_alive(i)) continue;
    if (first) {
      total = engine.fleet().local_mass(i);
      first = false;
    } else {
      total += engine.fleet().local_mass(i);
    }
  }
  return total;
}

}  // namespace pcf::test
