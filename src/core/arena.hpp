// Structure-of-arrays state arena: the one implementation of every gossip
// protocol in the roster.
//
// The ArenaFleet stores the state of ALL nodes in flat contiguous arrays
// indexed by a CSR adjacency built once from net::Topology:
//
//   offsets_[i] .. offsets_[i+1]   node i's directed-edge range ("slots")
//   nbr_[e]                        neighbor id of directed edge e
//   reverse_slot_[e]               slot of i in that neighbor's own range
//   flows_[e*stride ..]            per-edge flow state, stride doubles each
//
// Every Mass (s[0..d-1], w) is stored as stride = d+1 consecutive doubles in
// the order [s0, …, s_{d-1}, w]. Loops over a row may interleave independent
// components but never fuse or reassociate the operations on one component,
// so the per-scalar floating-point operation chains are those of the original
// per-node reducer objects — tests/sim/test_arena_equivalence.cpp pins the
// resulting trajectories bit for bit.
//
// The hot per-round operations (make_message / receive) are templated on the
// Algorithm so the engine's round loop devirtualizes and inlines them; the
// cold protocol surface (link up/down, corruption, checkpoint rows,
// introspection) lives in arena.cpp. Callers that do not know the algorithm
// at compile time (the async engine, the runtimes, the schedule runner) use
// the untyped by-id overloads, which pick the kernel through core::dispatch.
// Every caller addresses a node by its id: there is no per-node object.
//
// Concurrency: every operation on node i writes only node i's rows (its edge
// range and its per-node rows) and reads only those plus the immutable CSR
// arrays and tree schedule. Calls for DIFFERENT nodes may therefore run on
// different threads at once (the sharded round loop, the threaded runtime);
// calls for the same node must be serialized by the caller.
//
// ── The protocols (one kernel each, below and in arena.cpp) ────────────────
//
// Push-sum (Kempe, Dobra, Gehrke — FOCS 2003). Keep half the mass, push half
//   to a uniformly random neighbor. Conservation is GLOBAL, so a lost or
//   corrupted message silently destroys the result: the non-fault-tolerant
//   baseline.
// Push-flow (PF, Fig. 1 of the paper). Per neighbor a flow f_{i,j}; a send
//   folds the pushed half into f_{i,k} and transmits the whole flow, the
//   receiver overwrites its mirror with the exact negation. Conservation is a
//   local pairwise property re-established by the next delivery, so loss and
//   flow bit flips self-heal. e_i = v_i − Σ_j f_{i,j}. Flows grow with n
//   (cancellation error) and excluding a link zeroes flows of arbitrary
//   magnitude (a restart) — the weaknesses PCF fixes.
// Push-cancel-flow (PCF, Fig. 5 — the paper's contribution). Two flow slots
//   per edge: the active one runs plain PF, the passive one is driven to zero.
//   Once the passive pair is observed exactly antisymmetric both endpoints
//   absorb their copy into the flow sum ϕ, zero it and swap roles; forever.
//   Flows stay O(aggregate) and their ratio s/w ≈ aggregate, so zeroing a pair
//   on failure perturbs mass, not estimates (no fall-back, Fig. 7). kFast
//   keeps ϕ incrementally (Fig. 5 verbatim; flips are baked in); kRobust lets
//   ϕ absorb only cancelled flows and re-sums the live slots (flips heal).
//   The handshake deliberately deviates from Fig. 5, whose symmetric role
//   negotiation loses mass under pipelined delivery (a stale packet rolls a
//   completed swap back; both ends absorb passive values that are not exact
//   negations — found by tests/core/test_interleaving_fuzz.cpp):
//    1. only the lower node id (the initiator) starts cancellations; the
//       completer absorbs and swaps on seeing the bumped counter, and the
//       initiator then adopts the swap — adoption is one-directional;
//    2. the initiator's passive copy is write-once per cycle and only the
//       completer mirrors it; the per-edge counter counts PHASES (steady,
//       transition — two per cycle) and cancel-equality is accepted only
//       from current steady-phase packets, so by per-direction FIFO both
//       absorbed halves are exact negations under any interleaving;
//    3. while a swap propagates, packets with the old role mirror only the
//       old active slot, so fresh pushes are never clobbered.
//   The active slot runs unmodified PF in every phase, preserving the paper's
//   PF-equivalence property (same schedule, no failures ⇒ same estimates).
// Flow Updating (Jesus, Baquero, Almeida — DAIS 2009), gossip-paced. Per
//   neighbor a flow and the neighbor's last fused estimate ê_j; each send
//   fuses a_i = (e_i + Σ ê_j) / (|N_i| + 1), moves the chosen edge's flow so
//   the neighbor's view reaches a_i, and transmits (f, a_i). Mirrors as PF.
// Correction allreduce (Küttler & Härtig). Over a net::TreeSchedule every
//   node resends its ABSOLUTE subtree sum (packet a) with its parent claim
//   (role_count = parent + 1); the root's sum — the global aggregate — flows
//   back down as the view (packet b, valid iff active_slot == 2). Reports are
//   idempotent, so loss/duplication/reorder are corrected by the next resend.
//   A node losing its parent re-attaches to the (depth, id)-minimal live
//   neighbor of strictly smaller static depth, or becomes a fragment root.
//   No mass ever moves.
// FU/MD hybrid (Almeida, Baquero, Farach-Colton, Jesus, Mosteiro). FU's flow
//   bookkeeping with mass distribution's pairwise step: Δ = (m_i − m̂_j) / 2
//   moves through the edge flow and (f, m_i') is transmitted — MD's speed
//   with FU's exact conservation even against stale reports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "core/mass.hpp"
#include "core/reducer.hpp"
#include "net/topology.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace pcf {
class BinaryWriter;
class BinaryReader;
}  // namespace pcf

namespace pcf::core {

/// Calls f(std::integral_constant<Algorithm, A>{}) for the runtime value `a`,
/// so one generic lambda reaches the kernels templated on the algorithm.
template <typename F>
decltype(auto) dispatch(Algorithm a, F&& f) {
  using enum Algorithm;
  switch (a) {
    case kPushSum:
      return f(std::integral_constant<Algorithm, kPushSum>{});
    case kPushFlow:
      return f(std::integral_constant<Algorithm, kPushFlow>{});
    case kPushCancelFlow:
      return f(std::integral_constant<Algorithm, kPushCancelFlow>{});
    case kFlowUpdating:
      return f(std::integral_constant<Algorithm, kFlowUpdating>{});
    case kCorrectionAllreduce:
      return f(std::integral_constant<Algorithm, kCorrectionAllreduce>{});
    case kFuMassHybrid:
      break;  // -Wswitch keeps the case list complete
  }
  return f(std::integral_constant<Algorithm, kFuMassHybrid>{});
}

class ArenaFleet {
 public:
  /// Builds the CSR adjacency and the algorithm's state arrays, and installs
  /// one initial mass per node. All masses must share one dimension. A
  /// correction allreduce with no `config.tree` builds its tree schedule
  /// from the topology and `config.tree_kind`.
  ArenaFleet(Algorithm algorithm, const ReducerConfig& config,
             const net::Topology& topology, std::span<const Mass> initial);

  [[nodiscard]] std::size_t size() const noexcept { return live_count_.size(); }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] Algorithm algorithm() const noexcept { return algorithm_; }
  [[nodiscard]] const ReducerConfig& config() const noexcept { return config_; }

  [[nodiscard]] std::size_t degree(NodeId i) const noexcept {
    return offsets_[i + 1] - offsets_[i];
  }
  [[nodiscard]] std::size_t live_degree(NodeId i) const noexcept { return live_count_[i]; }
  [[nodiscard]] NodeId neighbor(NodeId i, std::size_t slot) const noexcept {
    return nbr_[offsets_[i] + slot];
  }
  [[nodiscard]] bool alive_at(NodeId i, std::size_t slot) const noexcept {
    return alive_[offsets_[i] + slot] != 0;
  }
  /// Slot index of neighbor j in node i's range, or nullopt.
  [[nodiscard]] std::optional<std::size_t> slot_of(NodeId i, NodeId j) const noexcept;

  /// A produced packet plus the receiver-side slot of the sender, so the
  /// engine's delivery loop needs no id -> slot lookup.
  struct Send {
    NodeId to = 0;
    std::uint32_t to_slot = 0;
    Packet packet;
  };

  // ---- hot path (templated on the algorithm; inlined into the engine) ----

  /// One gossip send step for node i: uniform live-neighbor draw followed by
  /// the algorithm's send rule. RNG-stream contract: exactly one
  /// rng.below(live_degree(i)) when node i has a live neighbor, no draw at
  /// all otherwise — so runs of different algorithms with one seed share a
  /// communication schedule. Returns nullopt when no live neighbor is left.
  template <Algorithm A>
  [[nodiscard]] std::optional<Send> make_message(NodeId i, Rng& rng) {
    const std::uint32_t lc = live_count_[i];
    if (lc == 0) return std::nullopt;
    const std::size_t slot =
        live_slots_[offsets_[i] + static_cast<std::size_t>(rng.below(lc))];
    return send_to_slot<A>(i, slot);
  }

  /// Directed send toward a specific live neighbor — deterministic schedules
  /// such as the paper's Fig. 2 regular matching on a bus. Returns nullopt if
  /// `target` is not a live neighbor of i.
  template <Algorithm A>
  [[nodiscard]] std::optional<Send> make_message_to(NodeId i, NodeId target) {
    const auto slot = slot_of(i, target);
    if (!slot || alive_[offsets_[i] + *slot] == 0) return std::nullopt;
    return send_to_slot<A>(i, *slot);
  }

  template <Algorithm A>
  [[nodiscard]] std::optional<Send> send_to_slot(NodeId i, std::size_t slot);

  /// Delivers `packet` from neighbor `from` (= neighbor(i, slot)) to node i.
  /// Every engine delivers the packets of one directed link in FIFO order;
  /// loss (gaps) is allowed. The caller resolved the slot; the acceptance
  /// checks (liveness, dimensions, header validity) run here.
  template <Algorithm A>
  void receive(NodeId i, NodeId from, std::size_t slot, const Packet& packet);

  // ---- untyped by-id entries (arena.cpp; the kernel is picked by dispatch) ----

  [[nodiscard]] std::optional<Send> make_message(NodeId i, Rng& rng);
  [[nodiscard]] std::optional<Send> make_message_to(NodeId i, NodeId target);
  /// Delivers a packet from `from` to node i, resolving the slot first. A
  /// packet from a node that is not a topology neighbor of i (a stranger, or
  /// an id outside the fleet) is ignored by every algorithm.
  void receive(NodeId i, NodeId from, const Packet& packet);

  // ---- cold protocol surface (arena.cpp) ----

  /// Failure-detector callback: node i's link to j failed permanently; i
  /// excludes j from the computation (PF/PCF: the edge flows are folded into
  /// the local mass and zeroed).
  void on_link_down(NodeId i, NodeId j);
  /// Recovery callback: node i's link to j (previously reported down) works
  /// again — a healed link, a rejoined neighbor, or a cleared false positive.
  /// j is re-admitted with a blank edge: zeroed flows (the exclusion rule run
  /// in reverse; the flow state both ends held before the outage is stale and
  /// was already folded into the local masses by on_link_down). Duplicate
  /// notifications, and one for a neighbor that was never excluded, are
  /// benign no-ops.
  void on_link_up(NodeId i, NodeId j);
  /// Live data update (LiMoSense-style monitoring): node i's input changes by
  /// `delta` mid-computation. The flow algorithms keep the input separate
  /// from the flows, so the estimates re-converge toward the new aggregate;
  /// push-sum folds the delta into its in-flight mass.
  void update_data(NodeId i, const Mass& delta);
  /// Fault injection: flips one random mantissa/sign bit of one STORED flow
  /// variable of node i — a memory soft error, as opposed to in-transit
  /// corruption. False when the algorithm stores no flow state (push-sum).
  /// Flow algorithms heal at the next mirror on the edge, except bookkeeping
  /// that accumulates increments from the corrupted value (the PCF fast
  /// variant's ϕ) — the paper's Section III-A caveat.
  bool corrupt_stored_flow(NodeId i, Rng& rng);
  /// Checkpointing: node i's mutable arena rows — per-edge liveness plus the
  /// current algorithm's flat state spans, doubles as raw IEEE-754 bits —
  /// written to `w` or read back from `r` through one field list
  /// (node_field_list; layout: DESIGN.md §8). The CSR adjacency is
  /// topology-derived and not written; a round trip is bit-exact. Reading
  /// rebuilds the node's live-slot prefix and throws BinioError on a degree
  /// mismatch, an active slot above 1 or truncation.
  void node_fields(BinaryWriter& w, NodeId i) const;
  void node_fields(BinaryReader& r, NodeId i);
  /// Rejoin support: restores node i to its factory-fresh post-init state in
  /// place — all slots alive, zeroed flow state, `initial` as the input mass.
  /// The node keeps its arena rows; rejoin never grows the arena.
  void reset_node(NodeId i, const Mass& initial);

  /// Node i's current mass e_i.
  [[nodiscard]] Mass local_mass(NodeId i) const;
  /// Node i's estimate of aggregate component k: the mass ratio s[k]/w, or
  /// Flow Updating's fused neighborhood estimate.
  [[nodiscard]] double estimate(NodeId i, std::size_t k = 0) const;
  /// Largest |component| over node i's flow state. The paper's core
  /// observation: for PF this grows with n, for PCF it stays O(aggregate).
  [[nodiscard]] double max_abs_flow_component(NodeId i) const noexcept;
  /// PCF: role swaps node i completed, summed over its edges; 0 otherwise.
  [[nodiscard]] std::uint64_t role_swaps(NodeId i) const noexcept;
  /// Mass pairs one packet of this algorithm carries on the wire: 1 for
  /// push-sum/PF, 2 for PCF (two slots), FU/FUMD (flow + estimate) and CORR
  /// (report + view). Used by the engines' bandwidth accounting.
  [[nodiscard]] std::size_t wire_masses() const noexcept;
  /// Whether pending packets on one directed link carry INDEPENDENT mass
  /// (push-sum: each packet is a transfer; sum them all) or supersede each
  /// other (flow algorithms: the mirror is absolute; only the newest pending
  /// packet counts toward unreceived_mass).
  [[nodiscard]] bool in_flight_mass_accumulates() const noexcept {
    return algorithm_ == Algorithm::kPushSum;
  }
  /// Upper bound on the flow slots any algorithm stores per edge (PCF: 2).
  static constexpr std::size_t kMaxFlowSlots = 2;
  /// Copies node i's stored flow state toward neighbor j into `out`
  /// (slot-indexed; both endpoints of an edge use the same slot order).
  /// Returns the number of slots written — 0 when the algorithm stores no
  /// flow toward j or j is not a live neighbor. `out` holds at least
  /// kMaxFlowSlots elements.
  [[nodiscard]] std::size_t flows_toward(NodeId i, NodeId j, std::span<Mass> out) const;
  /// Crash-retarget accounting: the mass node i's state does NOT yet reflect
  /// but which delivering `packet` (pending from `from`) would add to
  /// local_mass(i). Zero whenever receive would ignore the packet (unknown or
  /// excluded link, corrupted dimensions). Push-sum: the packet's share. Flow
  /// algorithms: stored mirror minus the packet's flow — an ABSOLUTE
  /// quantity, so only the newest pending packet per directed link counts
  /// (see in_flight_mass_accumulates).
  [[nodiscard]] Mass unreceived_mass(NodeId i, NodeId from, const Packet& packet) const;
  /// PCF per-edge handshake state as seen by one endpoint (the
  /// pcf-handshake invariant checker and the protocol tests probe it; the
  /// two flow slots themselves come from flows_toward, in slot order).
  struct PcfEdgeView {
    std::uint8_t active_slot;  ///< 1-based, as on the wire
    std::uint64_t role_count;  ///< phase counter (two phases per cycle)
  };
  /// PCF only: node i's handshake state on its edge toward neighbor j.
  [[nodiscard]] PcfEdgeView pcf_edge_state(NodeId i, NodeId j) const;
  /// CORR only: node i's current parent — the (depth, id)-minimal live
  /// neighbor at strictly smaller static depth — or nullopt for a fragment
  /// root.
  [[nodiscard]] std::optional<NodeId> correction_parent(NodeId i) const noexcept;

 private:
  static constexpr std::size_t kMaxStride = kMaxDim + 1;

  [[nodiscard]] double* row(std::vector<double>& v, std::size_t index) noexcept {
    return v.data() + index * stride_;
  }
  [[nodiscard]] const double* row(const std::vector<double>& v, std::size_t index) const noexcept {
    return v.data() + index * stride_;
  }
  /// PCF flow slot `which` (0/1) of directed edge e.
  [[nodiscard]] double* pcf_flow(std::size_t e, std::uint8_t which) noexcept {
    return flows_.data() + (e * 2 + which) * stride_;
  }
  [[nodiscard]] const double* pcf_flow(std::size_t e, std::uint8_t which) const noexcept {
    return flows_.data() + (e * 2 + which) * stride_;
  }

  [[nodiscard]] Mass mass_from(const double* r) const;
  void store_mass(double* r, const Mass& m) noexcept;
  static void zero_row(double* r, std::size_t stride) noexcept {
    for (std::size_t k = 0; k < stride; ++k) r[k] = 0.0;
  }

  /// e_i into `out` (stride doubles); the per-algorithm operation order is
  /// part of the pinned numerics (see the notes in arena.cpp).
  void local_mass_into(NodeId i, double* out) const noexcept;
  /// FU only: the fused neighborhood average a_i.
  void fused_into(NodeId i, double* out) const noexcept;
  /// CORR only: v_i plus the reports of all current live children, slot order.
  void subtree_sum_into(NodeId i, double* out) const noexcept;
  /// CORR only: slot of the (depth, id)-minimal live neighbor at strictly
  /// smaller static tree depth, or nullopt for a (fragment) root.
  [[nodiscard]] std::optional<std::size_t> correction_parent_slot(NodeId i) const noexcept;

  /// The one field list behind node_fields: `self` is const when saving.
  template <class Io, class Self>
  static void node_field_list(Io& io, Self& self, NodeId i);

  void mark_dead_slot(NodeId i, std::size_t slot) noexcept;
  void mark_alive_slot(NodeId i, std::size_t slot) noexcept;

  // PCF receive rules (see the handshake note at the top of the file).
  void pcf_mirror_slot(std::size_t e, std::uint8_t which, const Mass& received) noexcept;
  void pcf_absorb_passive(NodeId i, std::size_t e) noexcept;
  void pcf_receive_as_initiator(NodeId i, std::size_t e, const Packet& packet) noexcept;
  void pcf_receive_as_completer(NodeId i, std::size_t e, const Packet& packet) noexcept;

  Algorithm algorithm_;
  ReducerConfig config_;
  std::size_t dim_ = 0;
  std::size_t stride_ = 0;

  // CSR adjacency (copied from the Topology; neighbor lists stay sorted).
  std::vector<std::size_t> offsets_;        ///< size n+1
  std::vector<NodeId> nbr_;                 ///< directed edges, E entries
  std::vector<std::uint32_t> reverse_slot_; ///< slot of i in nbr_[e]'s range
  std::vector<std::uint8_t> alive_;         ///< per directed edge
  /// Node i's live slots as a sorted prefix of [offsets_[i], offsets_[i] +
  /// live_count_[i]). Sorted ascending slots == ascending neighbor ids, so
  /// the uniform draw is over live neighbors in ascending id order.
  std::vector<std::uint32_t> live_slots_;
  std::vector<std::uint32_t> live_count_;   ///< per node

  // Algorithm state (only the current algorithm's arrays are allocated).
  std::vector<double> mass_;      ///< PS: n×stride — the in-flight mass
  std::vector<double> initial_;   ///< PF/PCF/FU: n×stride — input data v_i
  std::vector<double> flows_;     ///< PF/FU: E×stride; PCF: E×2×stride
  std::vector<double> cached_;    ///< PF ablation (pf_cached_flow_sum): n×stride
  std::vector<double> estimates_; ///< FU: ê_j; CORR: child report; FMH: m̂_j — E×stride
  std::vector<std::uint8_t> have_estimate_;  ///< FU/CORR/FMH: per edge
  std::vector<double> phi_;       ///< PCF: n×stride — absorbed (+fast: live) flows
  std::vector<double> pending_;   ///< PCF: E×stride — initiator's pending absorption
  std::vector<std::uint8_t> active_;         ///< PCF: per edge, active slot 0/1
  std::vector<std::uint64_t> cycle_;         ///< PCF: per edge, phase counter
  std::vector<std::uint64_t> role_swaps_;    ///< PCF: per node
  std::vector<std::uint8_t> child_;          ///< CORR: per edge — neighbor claims me as parent
  std::vector<double> global_;               ///< CORR: n×stride — last global view from parent
  std::vector<std::uint8_t> have_global_;    ///< CORR: per node
  std::shared_ptr<const net::TreeSchedule> tree_;  ///< CORR: resolved static schedule
};

// ---------------------------------------------------------------------------
// Hot-path templates: one send rule and one receive rule per protocol, on
// flat rows (see the layout and protocol notes at the top of the file).
// ---------------------------------------------------------------------------

template <Algorithm A>
std::optional<ArenaFleet::Send> ArenaFleet::send_to_slot(NodeId i, std::size_t slot) {
  const std::size_t e = offsets_[i] + slot;
  Send out;
  out.to = nbr_[e];
  out.to_slot = reverse_slot_[e];

  if constexpr (A == Algorithm::kPushSum) {
    // PS: keep half, push half.
    double* m = row(mass_, i);
    Mass share = Mass::zero(dim_);
    for (std::size_t k = 0; k < dim_; ++k) {
      share.s[k] = m[k] * 0.5;
      m[k] -= share.s[k];
    }
    share.w = m[dim_] * 0.5;
    m[dim_] -= share.w;
    out.packet.a = share;
    return out;
  } else if constexpr (A == Algorithm::kPushFlow) {
    // PF: fold half the mass into the flow, send the flow.
    double lm[kMaxStride];
    local_mass_into(i, lm);
    double* f = row(flows_, e);
    double* c = config_.pf_cached_flow_sum ? row(cached_, i) : nullptr;
    for (std::size_t k = 0; k < stride_; ++k) {
      const double half = lm[k] * 0.5;
      f[k] += half;
      if (c != nullptr) c[k] += half;
    }
    out.packet.a = mass_from(f);
    return out;
  } else if constexpr (A == Algorithm::kPushCancelFlow) {
    // PCF: PF on the edge's active slot only.
    double lm[kMaxStride];
    local_mass_into(i, lm);
    double* f = pcf_flow(e, active_[e]);
    double* phi = phi_.data() + i * stride_;
    const bool fast = config_.pcf_variant == PcfVariant::kFast;
    for (std::size_t k = 0; k < stride_; ++k) {
      const double half = lm[k] * 0.5;
      f[k] += half;
      if (fast) phi[k] += half;
    }
    out.packet.a = mass_from(pcf_flow(e, 0));
    out.packet.b = mass_from(pcf_flow(e, 1));
    out.packet.active_slot = static_cast<std::uint8_t>(active_[e] + 1);  // wire: 1-based
    out.packet.role_count = cycle_[e];
    return out;
  } else if constexpr (A == Algorithm::kFlowUpdating) {
    // FU: move the edge flow toward the fused average.
    double a[kMaxStride];
    fused_into(i, a);
    double* f = row(flows_, e);
    double* est = row(estimates_, e);
    if (have_estimate_[e] != 0) {
      for (std::size_t k = 0; k < stride_; ++k) f[k] += a[k] - est[k];
    } else {
      for (std::size_t k = 0; k < stride_; ++k) f[k] += a[k];
    }
    for (std::size_t k = 0; k < stride_; ++k) est[k] = a[k];
    have_estimate_[e] = 1;
    out.packet.a = mass_from(f);
    out.packet.b = mass_from(a);
    return out;
  } else if constexpr (A == Algorithm::kCorrectionAllreduce) {
    // CORR: full status — subtree report, parent
    // claim, and (when held) the global view.
    double s[kMaxStride];
    subtree_sum_into(i, s);
    const auto parent_slot = correction_parent_slot(i);
    out.packet.a = mass_from(s);
    out.packet.role_count =
        parent_slot ? static_cast<std::uint64_t>(nbr_[offsets_[i] + *parent_slot]) + 1 : 0;
    if (!parent_slot) {
      out.packet.b = mass_from(s);  // the (fragment) root's sum IS the view
      out.packet.active_slot = 2;
    } else if (have_global_[i] != 0) {
      out.packet.b = mass_from(row(global_, i));
      out.packet.active_slot = 2;
    } else {
      out.packet.b = Mass::zero(dim_);
      out.packet.active_slot = 1;  // b carries nothing yet
    }
    return out;
  } else {
    static_assert(A == Algorithm::kFuMassHybrid);
    // FUMD: halve the gap to the neighbor's last report
    // through the edge flow, then transmit (flow, post-step mass).
    double m[kMaxStride];
    local_mass_into(i, m);
    double* f = row(flows_, e);
    if (have_estimate_[e] != 0) {
      const double* rep = row(estimates_, e);
      for (std::size_t k = 0; k < stride_; ++k) {
        const double d = (m[k] - rep[k]) * 0.5;
        f[k] += d;
        m[k] -= d;
      }
    }
    out.packet.a = mass_from(f);
    out.packet.b = mass_from(m);
    return out;
  }
}

template <Algorithm A>
void ArenaFleet::receive(NodeId i, NodeId from, std::size_t slot, const Packet& packet) {
  const std::size_t e = offsets_[i] + slot;
  PCF_ASSERT(nbr_[e] == from);

  if constexpr (A == Algorithm::kPushSum) {
    // PS accepts from any known slot, live or excluded.
    PCF_ASSERT(packet.a.dim() == dim_);
    double* m = row(mass_, i);
    for (std::size_t k = 0; k < dim_; ++k) m[k] += packet.a.s[k];
    m[dim_] += packet.a.w;
  } else if constexpr (A == Algorithm::kPushFlow) {
    if (alive_[e] == 0) return;                // stale packet after exclusion
    if (packet.a.dim() != dim_) return;        // corrupted beyond use
    double* f = row(flows_, e);
    double* c = config_.pf_cached_flow_sum ? row(cached_, i) : nullptr;
    // Op order per component: cached -= old flow, cached += mirror,
    // flow = mirror (two separate adds — do not fuse, the rounding differs).
    for (std::size_t k = 0; k < dim_; ++k) {
      const double mirrored = -packet.a.s[k];
      if (c != nullptr) {
        c[k] -= f[k];
        c[k] += mirrored;
      }
      f[k] = mirrored;
    }
    const double mirrored_w = -packet.a.w;
    if (c != nullptr) {
      c[dim_] -= f[dim_];
      c[dim_] += mirrored_w;
    }
    f[dim_] = mirrored_w;
  } else if constexpr (A == Algorithm::kPushCancelFlow) {
    if (alive_[e] == 0) return;
    if (packet.a.dim() != dim_ || packet.b.dim() != dim_) return;
    if (packet.active_slot != 1 && packet.active_slot != 2) return;  // corrupted header
    if (i < from) {
      pcf_receive_as_initiator(i, e, packet);
    } else {
      pcf_receive_as_completer(i, e, packet);
    }
  } else if constexpr (A == Algorithm::kCorrectionAllreduce) {
    if (alive_[e] == 0) return;
    if (packet.a.dim() != dim_ || packet.b.dim() != dim_) return;
    if (packet.active_slot != 1 && packet.active_slot != 2) return;  // corrupted header
    const bool claims_us = packet.role_count == static_cast<std::uint64_t>(i) + 1;
    child_[e] = claims_us ? 1 : 0;
    if (claims_us) {
      store_mass(row(estimates_, e), packet.a);
      have_estimate_[e] = 1;
    } else {
      have_estimate_[e] = 0;
    }
    if (packet.active_slot == 2) {
      const auto parent_slot = correction_parent_slot(i);
      if (parent_slot && offsets_[i] + *parent_slot == e) {
        store_mass(row(global_, i), packet.b);
        have_global_[i] = 1;
      }
    }
  } else {
    // FU and the FU/MD hybrid share the receive rule: overwrite the edge flow
    // with the exact mirror negation and refresh the neighbor's report.
    static_assert(A == Algorithm::kFlowUpdating || A == Algorithm::kFuMassHybrid);
    if (alive_[e] == 0) return;
    if (packet.a.dim() != dim_ || packet.b.dim() != dim_) return;
    double* f = row(flows_, e);
    double* est = row(estimates_, e);
    for (std::size_t k = 0; k < dim_; ++k) {
      f[k] = -packet.a.s[k];
      est[k] = packet.b.s[k];
    }
    f[dim_] = -packet.a.w;
    est[dim_] = packet.b.w;
    have_estimate_[e] = 1;
  }
}

}  // namespace pcf::core
