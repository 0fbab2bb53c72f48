// Vocabulary shared by every gossip reduction algorithm: the wire packet, the
// algorithm roster and the per-algorithm configuration.
//
// The protocols themselves live in core::ArenaFleet (core/arena.hpp) — the
// one implementation of every algorithm, addressed by node id. Engines
// (synchronous rounds, asynchronous events, threaded and socket runtimes)
// only move packets between nodes — the algorithms never see the transport,
// which is exactly the property that lets the same code run in a simulator
// and in a runtime.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

#include "core/mass.hpp"
#include "net/topology.hpp"
#include "net/tree_schedule.hpp"

namespace pcf::core {

using net::NodeId;

/// Universal wire format. Each algorithm uses the subset of fields it needs;
/// unused fields stay zero. Keeping one POD packet type (instead of a variant
/// per algorithm) lets the fault injector flip bits and the engines stay
/// algorithm-agnostic.
struct Packet {
  Mass a;                       ///< push-sum share / PF flow / PCF flow slot 1 / FU flow
  Mass b;                       ///< PCF flow slot 2 / FU sender estimate
  std::uint8_t active_slot = 1; ///< PCF: sender's c_{i,j} ∈ {1,2}
  std::uint64_t role_count = 0; ///< PCF: sender's r_{i,j}
};

enum class Algorithm {
  kPushSum,             ///< Kempe et al. 2003 — fast, zero fault tolerance
  kPushFlow,            ///< Gansterer et al. 2011/12 — Fig. 1 of the paper
  kPushCancelFlow,      ///< this paper's contribution — Fig. 5
  kFlowUpdating,        ///< Jesus et al. 2009 — averaging-only baseline
  kCorrectionAllreduce, ///< Küttler & Härtig — tree allreduce with corrections
  kFuMassHybrid,        ///< Almeida et al. 2011 — FU flows at MD pairing speed
};

[[nodiscard]] std::string_view to_string(Algorithm a) noexcept;
/// Parses "pushsum" | "pf" | "pcf" | "fu" | "corr" | "fumd" (and long names).
[[nodiscard]] Algorithm parse_algorithm(std::string_view name);

/// PCF bookkeeping variants (Section III-A of the paper).
enum class PcfVariant {
  /// Fig. 5 verbatim: the flow sum ϕ is maintained incrementally and the
  /// estimate is v − ϕ. Cheapest, but a corrupted ϕ or flow slot can never
  /// heal, so bit flips are not tolerated.
  kFast,
  /// ϕ only absorbs *cancelled* flows; the estimate is recomputed from the
  /// live flow slots each time. Retains PF's self-healing of corrupted flow
  /// variables (the paper's remark at the end of Section III-A).
  kRobust,
};

[[nodiscard]] std::string_view to_string(PcfVariant v) noexcept;

struct ReducerConfig {
  Aggregate aggregate = Aggregate::kAverage;
  PcfVariant pcf_variant = PcfVariant::kRobust;
  /// PF ablation: maintain Σ flows in a cached accumulator instead of
  /// recomputing it per send (the paper notes both variants are inaccurate).
  bool pf_cached_flow_sum = false;
  /// Correction allreduce: requested reduce-tree shape. kAuto selects from
  /// the topology (star hub → star, id-order path → chain, heap edges →
  /// binary, else BFS) — the Hoplite-style dynamic reduce-topology pick.
  net::TreeKind tree_kind = net::TreeKind::kAuto;
  /// The resolved tree schedule, shared read-only by every node. A
  /// correction-allreduce ArenaFleet builds it from its topology and
  /// tree_kind when this is empty. Derived state:
  /// a pure function of topology × tree_kind, so checkpoint compatibility
  /// hashes tree_kind, never the schedule itself.
  std::shared_ptr<const net::TreeSchedule> tree;
};

}  // namespace pcf::core
