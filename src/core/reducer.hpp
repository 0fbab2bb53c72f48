// The per-node protocol interface shared by all gossip reduction algorithms.
//
// A Reducer is the protocol state machine of ONE node seen from outside: it
// produces/consumes point-to-point packets and answers for the node's mass,
// estimate and per-neighbor flow state. The state itself lives in a
// core::ArenaFleet (core/arena.hpp) — the one implementation of every
// algorithm — and core::ArenaReducer is the facade implementing this
// interface for one node of a fleet. Engines (synchronous rounds,
// asynchronous events, threaded and socket runtimes) only move packets
// between nodes — the algorithms never see the transport, which is exactly
// the property that lets the same code run in a simulator and in a runtime.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>

#include "core/mass.hpp"
#include "net/topology.hpp"
#include "net/tree_schedule.hpp"
#include "support/rng.hpp"

namespace pcf {
class BinaryWriter;
class BinaryReader;
}  // namespace pcf

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

/// A packet addressed to a neighbor.
struct Outgoing {
  NodeId to = 0;
  Packet packet;
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

/// Whether the algorithm needs a resolved net::TreeSchedule in its
/// ReducerConfig before a fleet is constructed. The engines populate it from
/// their topology when the caller left it empty.
[[nodiscard]] constexpr bool needs_tree_schedule(Algorithm a) noexcept {
  return a == Algorithm::kCorrectionAllreduce;
}

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
  /// The resolved tree schedule, shared read-only by every node. Engines
  /// build it from their topology when an algorithm that needs it (see
  /// needs_tree_schedule) is selected and this is still empty. Derived state:
  /// a pure function of topology × tree_kind, so checkpoint compatibility
  /// hashes tree_kind, never the schedule itself.
  std::shared_ptr<const net::TreeSchedule> tree;
};

/// Per-node protocol state machine. Not thread-safe; callers serialize
/// access per node (see the concurrency note in core/arena.hpp).
class Reducer {
 public:
  virtual ~Reducer() = default;

  /// Binds identity, neighborhood and initial mass (the arena facade checks
  /// them against its fleet, which already holds the state). Must be called
  /// exactly once before any other member.
  virtual void init(NodeId self, std::span<const NodeId> neighbors, Mass initial) = 0;

  /// One gossip send step: choose a live neighbor (uniformly at random) and
  /// produce the packet for it. Returns nullopt when the node has no live
  /// neighbors left.
  [[nodiscard]] virtual std::optional<Outgoing> make_message(Rng& rng) = 0;

  /// Directed send step toward a specific live neighbor — used by
  /// deterministic schedules (e.g. the paper's Fig. 2 regular synchronous
  /// matching on a bus). Returns nullopt if `target` is not a live neighbor.
  [[nodiscard]] virtual std::optional<Outgoing> make_message_to(NodeId target) = 0;

  /// Delivers a packet from neighbor `from`. Packets on a directed link are
  /// delivered in FIFO order by every engine; loss (gaps) is allowed.
  virtual void on_receive(NodeId from, const Packet& packet) = 0;

  /// The node's current mass e_i (estimates are e_i.estimate(k)).
  [[nodiscard]] virtual Mass local_mass() const = 0;

  /// Current estimate of aggregate component k. Defaults to the mass ratio
  /// s[k]/w; Flow Updating overrides it with its fused neighborhood estimate.
  [[nodiscard]] virtual double estimate(std::size_t k = 0) const {
    return local_mass().estimate(k);
  }

  /// Failure-detector callback: the link to `j` failed permanently. The
  /// reducer excludes j from the computation (PF/PCF: zero the edge flows).
  virtual void on_link_down(NodeId j) = 0;

  /// Recovery callback: the link to `j` (previously reported down) works
  /// again — a healed link, a rejoined neighbor, or a failure-detector false
  /// positive clearing. The reducer re-admits j with a blank edge: zeroed
  /// flows (the exclusion rule run in reverse; the flow state both ends held
  /// before the outage is stale and was already folded into the local masses
  /// by on_link_down). Duplicate notifications are benign no-ops, as is a
  /// notification for a neighbor that was never excluded.
  virtual void on_link_up(NodeId j) { (void)j; }

  /// Live data update (LiMoSense-style dynamic monitoring): the node's input
  /// changes by `delta` mid-computation. Flow-based algorithms support this
  /// naturally — the initial data is separate state from the flows, so the
  /// estimates simply re-converge toward the new aggregate. For push-sum the
  /// delta is folded into the in-flight mass (no separate input exists).
  virtual void update_data(const Mass& delta) = 0;

  /// Checkpointing: appends this node's complete mutable protocol state
  /// (neighbor liveness, masses, flows, handshake counters) to `w`. The
  /// format is per-algorithm and deterministic; a round-trip through
  /// load_state must be bit-exact. Configuration and topology are NOT
  /// written — they are reconstructed by the engine before load_state runs.
  virtual void save_state(BinaryWriter& w) const = 0;

  /// Restores state written by save_state into an init()-ed reducer of the
  /// same algorithm, configuration and neighborhood. Throws BinioError on
  /// malformed input (truncation, dimension/degree mismatch).
  virtual void load_state(BinaryReader& r) = 0;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Number of live neighbors (after link failures).
  [[nodiscard]] virtual std::size_t live_degree() const noexcept = 0;

  // ---- introspection hooks for tests, ablations and metrics ----

  /// Largest |component| over all flow state held by the node. The paper's
  /// core observation: for PF this grows with n, for PCF it stays O(aggregate).
  [[nodiscard]] virtual double max_abs_flow_component() const noexcept { return 0.0; }

  /// PCF: how many active/passive role swaps this node completed (summed over
  /// edges). 0 for other algorithms.
  [[nodiscard]] virtual std::uint64_t role_swaps() const noexcept { return 0; }

  /// Mass pairs a wire encoding of this algorithm's packets carries: 1 for
  /// push-sum/PF (one flow), 2 for PCF (two slots) and FU (flow + estimate).
  /// Used by the engines' bandwidth accounting.
  [[nodiscard]] virtual std::size_t wire_masses() const noexcept { return 1; }

  /// Upper bound on the flow slots any algorithm stores per edge (PCF: 2).
  static constexpr std::size_t kMaxFlowSlots = 2;

  /// Introspection for the invariant checkers: copies this node's stored flow
  /// state toward neighbor `j` into `out` (slot-indexed; both endpoints of an
  /// edge use the same slot order, so slot s here pairs with slot s on the
  /// peer). Returns the number of slots written — 0 when the algorithm stores
  /// no flow toward j (push-sum) or j is not a live neighbor. `out` must hold
  /// at least kMaxFlowSlots elements.
  [[nodiscard]] virtual std::size_t flows_toward(NodeId j, std::span<Mass> out) const {
    (void)j;
    (void)out;
    return 0;
  }

  /// Fault-injection hook: flips one random mantissa/sign bit in one randomly
  /// chosen STORED flow variable — a memory soft error, as opposed to the
  /// in-transit corruption the engines inject into packets. Returns false if
  /// the algorithm has no stored flow state to corrupt (push-sum). Flow
  /// algorithms heal this at the next mirror on the affected edge — except
  /// bookkeeping that accumulates increments from the corrupted value (the
  /// PCF fast variant's ϕ), which is the paper's Section III-A caveat.
  virtual bool corrupt_stored_flow(Rng& rng) {
    (void)rng;
    return false;
  }

  /// Mass accounting for the engines' crash retarget: the mass this node's
  /// state does NOT yet reflect but which delivering `packet` (a pending
  /// in-flight packet from neighbor `from`) would add to local_mass().
  /// Returns zero mass whenever on_receive would ignore the packet (unknown
  /// or excluded link, corrupted dimensions). Push-sum: the packet's mass
  /// share. Flow algorithms: stored-mirror minus the packet's flow — an
  /// *absolute* quantity, so only the newest pending packet per directed link
  /// counts (see in_flight_mass_accumulates()).
  [[nodiscard]] virtual Mass unreceived_mass(NodeId from, const Packet& packet) const {
    (void)from;
    return Mass::zero(packet.a.dim());
  }

  /// Whether pending packets on one directed link carry *independent* mass
  /// (push-sum: each packet is a transfer; sum them all) or supersede each
  /// other (flow algorithms: the mirror is absolute; only the newest pending
  /// packet counts).
  [[nodiscard]] virtual bool in_flight_mass_accumulates() const noexcept { return false; }
};

}  // namespace pcf::core
