// Synchronous round-based gossip engine.
//
// One round = every live node draws a gossip target and emits one packet; all
// packets of the round are then delivered (receivers see the senders' states
// as they were at the start of the round, i.e. messages "cross" — the classic
// synchronous gossip model used by the paper's experiments). Everything is
// deterministic given the seed: node i draws its targets from its own forked
// RNG stream, so runs of *different algorithms* with the same seed use the
// same communication schedule — which is how the paper makes Fig. 4 and
// Fig. 7 directly comparable ("we initially used exactly the same random
// seed").
#pragma once

#include <memory>
#include <vector>

#include "core/arena.hpp"
#include "core/reducer.hpp"
#include "core/stopping.hpp"
#include "net/link_set.hpp"
#include "net/topology.hpp"
#include "sim/checkpoint.hpp"
#include "sim/faults.hpp"
#include "sim/invariants.hpp"
#include "sim/metrics.hpp"
#include "support/perf.hpp"

namespace pcf::sim {

/// Within-round delivery model.
enum class Delivery {
  /// Each packet is delivered as soon as its sender produced it (node order).
  /// No two packets are ever in flight at once, so pairwise flow conservation
  /// holds after every delivery and the total mass is exactly conserved at
  /// every round boundary. Default, and the model the paper's invariants
  /// assume.
  kSequential,
  /// All packets of a round are sent first, then delivered ("messages
  /// cross"). Two nodes that pick each other in the same round each mirror
  /// the other's STALE flow, transiently breaking conservation — a stress
  /// model the flow algorithms must (and do) self-heal from.
  kCrossing,
};

/// Engine state layout. Kept only for source compatibility: there is one
/// layout, structure-of-arrays flow arenas over a CSR adjacency with a
/// devirtualized round loop (core::ArenaFleet). The explicit value is part of
/// the checkpoint format (the header's engine_mode byte and the sync
/// compatibility hash), so it must never change.
enum class EngineMode {
  kArena = 1,
};

struct SyncEngineConfig {
  core::Algorithm algorithm = core::Algorithm::kPushCancelFlow;
  core::ReducerConfig reducer;
  FaultPlan faults;
  std::uint64_t seed = 1;
  Delivery delivery = Delivery::kSequential;
  EngineMode mode = EngineMode::kArena;  ///< source compatibility only
  /// Shard the wire round over up to this many worker threads
  /// (0 = hardware concurrency, 1 = serial). Every wire send and every drain
  /// is sharded, whatever the fault knobs; the fault_rng_ draws run in
  /// serial passes between the sharded loops, in the serial order, so the
  /// engine output is byte-identical for every shard count. Immediate
  /// sequential delivery (no wire) stays serial: each delivery feeds a later
  /// send of the same round.
  std::size_t shards = 1;
  InvariantConfig invariants;  ///< runtime invariant checking (see invariants.hpp)
};

struct RunStats {
  std::size_t rounds = 0;
  std::size_t messages_sent = 0;
  std::size_t messages_dropped = 0;  // by message-loss injection or dead links
  std::size_t messages_flipped = 0;
  std::size_t messages_duplicated = 0;  // adversarial-delivery duplicates injected
  std::size_t doubles_sent = 0;  // payload bandwidth (mass components on the wire)
  std::size_t state_flips = 0;   // memory soft errors injected
  bool reached_target = false;   // for run_until_error
};

class SyncEngine {
 public:
  /// `initial` is one mass per node (all same dimension). The weight layout
  /// decides the aggregate (see core::initial_weight).
  /// The engine stores its own copy of the topology, so temporaries are safe.
  SyncEngine(net::Topology topology, std::span<const core::Mass> initial,
             SyncEngineConfig config);

  /// Executes one synchronous round (fault events due at this round fire
  /// first). Returns the round index just executed (1-based).
  std::size_t step();

  /// Runs `rounds` rounds.
  void run(std::size_t rounds);

  /// Runs until the oracle max relative error ≤ tol or max_rounds elapsed.
  RunStats run_until_error(double tol, std::size_t max_rounds);

  /// Runs until no estimate changes for `window` consecutive rounds (the
  /// numerical fixed point — best accuracy the algorithm will ever reach),
  /// or until max_rounds.
  RunStats run_until_fixed_point(std::size_t max_rounds, std::size_t window = 32);

  // ---- observation ----
  [[nodiscard]] std::size_t size() const noexcept { return fleet_->size(); }
  [[nodiscard]] std::size_t round() const noexcept { return round_; }
  [[nodiscard]] const Oracle& oracle() const noexcept { return oracle_; }
  [[nodiscard]] const RunStats& stats() const noexcept { return stats_; }
  /// Wall-clock per phase / throughput counters (see support/perf.hpp).
  [[nodiscard]] const PerfCounters& perf() const noexcept { return perf_; }
  /// Live access to the fault model between steps. Only the probabilistic
  /// knobs (loss / flip / duplicate / reorder / churn rates) may be changed
  /// mid-run; the scheduled event lists are fixed at construction. Zeroing
  /// reorder_prob after a reordered round does NOT re-arm the exact
  /// conservation checkers — the staleness it caused is sticky.
  [[nodiscard]] FaultPlan& mutable_faults() noexcept { return config_.faults; }

  /// Programmatic live data update: node's input changes by `delta` and the
  /// oracle target shifts exactly. The flow state is untouched, so estimates
  /// re-converge from where they are — the basis of warm-started reduction
  /// sessions (see sim::ReductionSession).
  void apply_data_update(NodeId node, const core::Mass& delta);

  /// Programmatic permanent link failure: transport stops now, both endpoints
  /// are notified immediately (detection delay does not apply).
  void fail_link_now(NodeId a, NodeId b);
  /// Programmatic link heal: transport resumes now, both endpoints are
  /// notified immediately (on_link_up). No-op if the link is up; rejected if
  /// either endpoint is crashed (rejoin revives a crashed node's links).
  void heal_link_now(NodeId a, NodeId b);
  /// Currently failed links (normalized (min,max) pairs, sorted) — the chaos
  /// harness uses this to heal whatever churn left dead.
  [[nodiscard]] std::vector<std::pair<NodeId, NodeId>> dead_links() const {
    return {dead_links_.begin(), dead_links_.end()};
  }
  [[nodiscard]] bool node_alive(NodeId i) const { return alive_.at(i); }
  /// The SoA state arena holding every node's protocol state, addressed by
  /// node id. The mutable overload bypasses the engine (no oracle shift, no
  /// fault accounting): tests use it to inject corruption or raw updates.
  [[nodiscard]] const core::ArenaFleet& fleet() const noexcept { return *fleet_; }
  [[nodiscard]] core::ArenaFleet& fleet() noexcept { return *fleet_; }
  /// Resolved shard count (config_.shards with 0 expanded to hardware).
  [[nodiscard]] std::size_t shards() const noexcept { return shards_; }

  /// Estimates of component k on all live nodes (dead nodes are skipped).
  [[nodiscard]] std::vector<double> estimates(std::size_t k = 0) const;
  /// Current masses of all live nodes.
  [[nodiscard]] std::vector<core::Mass> masses() const;
  [[nodiscard]] double max_error(std::size_t k = 0) const;
  [[nodiscard]] double median_error(std::size_t k = 0) const;
  /// Quantile q of the live nodes' local relative errors (q in [0,1]).
  [[nodiscard]] double error_quantile(double q, std::size_t k = 0) const;
  /// Largest flow component across all live nodes (ablation A3).
  [[nodiscard]] double max_abs_flow() const;
  /// Samples a TracePoint for the current state.
  [[nodiscard]] TracePoint sample(std::size_t k = 0) const;

  /// Cumulative fault telemetry — exactly what the invariant checkers see
  /// (fired event counters, in-flight/lossy exposure). The chaos harness and
  /// tests read heal/rejoin/duplication counts through this.
  [[nodiscard]] FaultExposure fault_exposure() const;

  /// The invariant monitor, or nullptr when checking is disabled.
  [[nodiscard]] const InvariantMonitor* invariants() const noexcept { return monitor_.get(); }
  /// Runs all invariant checkers against the current state immediately
  /// (independent of the per-round cadence). No-op when checking is disabled.
  void check_invariants_now();

  // ---- checkpoint / restore (sim/checkpoint.cpp; DESIGN.md §8) ----

  /// Serializes the engine's complete mutable state. Call between step()s —
  /// the synchronous wire is empty at every round boundary, so kLightweight
  /// and kFull produce the same body here (the mode is recorded for
  /// symmetry with the async engine).
  [[nodiscard]] std::string save_checkpoint(CheckpointMode mode = CheckpointMode::kFull) const;

  /// Restores a checkpoint written by save_checkpoint into this engine, which
  /// must have been constructed with the identical topology, initial masses
  /// and config (validated via the blob's compatibility hash). Throws
  /// CheckpointError on truncated/corrupted/version-skewed blobs or an
  /// incompatible engine; header and compatibility validation happen before
  /// any state is touched, but a throw from deeper body corruption leaves the
  /// engine in an unspecified state — discard it. After a successful restore,
  /// continuation is bitwise-identical to the saved run (per-round
  /// state_fingerprint(), message for message).
  void restore(std::string_view checkpoint);

  /// FNV-1a hash of the bit-exact live protocol state: round, per-node
  /// liveness, masses, estimates, flows toward every topology neighbor, and
  /// PCF handshake counters. Two engines in the same state agree; any bitwise
  /// state divergence shows. The restore-equivalence probe used by the tests,
  /// the chaos-restore scenarios and `pcflow checkpoint`.
  [[nodiscard]] std::uint64_t state_fingerprint() const;

  /// Times node i rejoined after a crash (checkpointed; the session layer
  /// uses this to re-apply data updates a dead node missed).
  [[nodiscard]] std::uint64_t rejoin_count(NodeId i) const { return rejoin_counts_.at(i); }

 private:
  struct View;
  /// The checkpoint body's one field list (sim/checkpoint.cpp): save runs it
  /// on a const engine with a BinaryWriter, restore with a BinaryReader.
  template <class Io, class Self>
  static void checkpoint_fields(Io& io, Self& self);
  void check_invariants(bool force);
  void process_due_faults();
  void fail_link(NodeId a, NodeId b, double physical_time, bool independent);
  /// Clears a dead link's dead/cut marks, counts the heal and drops its stale
  /// pending down-notices. False (and no effect) if the link was up.
  bool heal_dead_link(NodeId a, NodeId b);
  /// Revives a dead link (heal_dead_link) and schedules on_link_up at both
  /// endpoints for `time + detection_delay`. Caller has checked both
  /// endpoints are alive.
  void revive_link(NodeId a, NodeId b, double physical_time);
  void rejoin_node(NodeId node, double physical_time);
  void deliver_notifications_due();

  // Round phases, templated on the algorithm so the fleet's flat-array send
  // and receive inline (the devirtualized hot path); dispatch_* pick the
  // instantiation through core::dispatch. The wire phases split the node
  // range into `shards_` contiguous blocks (one shard is the serial loop):
  // a sender owns its wire slot and a receive writes only the receiver's
  // rows, while every fault_rng_ draw runs in a serial pass in the order a
  // serial loop would make it.
  /// Whether `out` cannot arrive: its link is dead or its receiver crashed.
  [[nodiscard]] bool transport_drops(const core::ArenaFleet::Send& out) const;
  /// Loss, then bit-flip draws for one packet on a live link. False if lost.
  bool survives_transport_faults(core::Packet& packet);
  template <core::Algorithm A>
  void immediate_send_phase();
  template <core::Algorithm A>
  void wire_send_phase();
  /// Fills drain_sequence_: the present senders in ascending order, with
  /// the reorder select and shuffle and each duplicate entered twice.
  void draw_delivery_sequence();
  template <core::Algorithm A>
  void drain_phase();
  void dispatch_send_phase();
  void dispatch_drain_phase();

  net::Topology topology_;
  SyncEngineConfig config_;
  std::unique_ptr<core::ArenaFleet> fleet_;
  std::size_t shards_ = 1;
  std::vector<Rng> node_rngs_;
  Rng fault_rng_;
  Oracle oracle_;
  std::vector<core::Mass> initial_;  // per node — a rejoining node restarts from this
  std::vector<bool> alive_;
  net::LinkSet dead_links_;  // transport cut
  /// Links that failed independently of a node crash (scheduled, explicit, or
  /// churn). A rejoin revives a crashed node's links EXCEPT these — the cable
  /// is still cut; only a heal event (or churn heal) restores them.
  net::LinkSet cut_links_;
  /// Live links currently excluded by a failure-detector false positive.
  net::LinkSet falsely_excluded_;
  struct PendingNotice {
    double due_time;
    NodeId node;  // who gets the callback
    NodeId peer;
    bool up = false;  // false: on_link_down, true: on_link_up
  };
  std::vector<PendingNotice> pending_notices_;
  std::vector<LinkHealEvent> churn_heals_;      // churn-scheduled heals, unordered
  std::vector<FalseDetectEvent> pending_clears_;  // "detected up" times for false positives
  std::size_t next_link_failure_ = 0;
  std::size_t next_node_crash_ = 0;
  std::size_t next_data_update_ = 0;
  std::size_t next_link_heal_ = 0;
  std::size_t next_node_rejoin_ = 0;
  std::size_t next_false_detect_ = 0;
  std::size_t round_ = 0;
  std::vector<std::uint64_t> rejoin_counts_;  // per node, monotone
  RunStats stats_;
  PerfCounters perf_;
  bool pending_retarget_ = false;
  /// A round ran with reordering enabled. Sticky: the stale mirrors it left
  /// outlive the knob, so the invariant layer treats the run as in-flight
  /// from then on (see View::faults()).
  bool wire_reordered_ = false;
  /// Crossing mode only: all exclusion notices have fired but the retarget
  /// must wait until the current round's wire_ has drained, so the snapshot
  /// sees no crossing packets mid-flight. See step().
  bool retarget_after_wire_ = false;
  std::unique_ptr<InvariantMonitor> monitor_;
  std::size_t explicit_link_failures_ = 0;  // via fail_link_now()
  std::size_t crashes_fired_ = 0;
  std::size_t explicit_data_updates_ = 0;  // via apply_data_update()
  std::size_t churn_failures_fired_ = 0;
  std::size_t link_heals_fired_ = 0;
  std::size_t rejoins_fired_ = 0;
  std::size_t false_detects_fired_ = 0;
  std::size_t false_clears_fired_ = 0;

  /// The round's wire (crossing delivery, or any reordering): one slot per
  /// sender, since a node sends at most one packet per round. wire_[i] holds
  /// node i's packet iff wire_present_[i]; the drain empties it. Sized on the
  /// first wire round, reused after. The flags are bytes, not vector<bool>:
  /// shards set their own senders' flags concurrently.
  std::vector<core::ArenaFleet::Send> wire_;
  std::vector<std::uint8_t> wire_present_;
  std::size_t wire_count_ = 0;              // present slots
  std::vector<std::size_t> drain_offsets_;  // per-receiver ranges of drain_order_, reused
  std::vector<std::size_t> drain_order_;    // senders grouped by receiver, reused
  std::vector<std::size_t> drain_sequence_;  // drawn delivery sequence, reused
};

}  // namespace pcf::sim
