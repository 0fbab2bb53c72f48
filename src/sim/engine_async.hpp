// Asynchronous event-driven gossip engine.
//
// Gossip reduction needs no synchronization — that is one of its selling
// points. This engine drops the round barrier of SyncEngine: every node owns
// a Poisson clock (rate `tick_rate`) and gossips whenever it fires, and every
// packet travels with a random latency drawn from [latency_min, latency_max).
// Per directed link, delivery is FIFO (arrival times are clamped to be
// monotone): the PCF handshake assumes in-order-or-lost delivery, which every
// realistic transport (TCP, MPI) provides.
//
// Used by integration tests and ablations to demonstrate that the accuracy /
// fault-tolerance results do not depend on the synchronous model.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "core/arena.hpp"
#include "core/reducer.hpp"
#include "net/link_set.hpp"
#include "sim/checkpoint.hpp"
#include "sim/event_heap.hpp"
#include "sim/faults.hpp"
#include "sim/invariants.hpp"
#include "sim/metrics.hpp"
#include "support/perf.hpp"

namespace pcf::sim {

struct AsyncEngineConfig {
  core::Algorithm algorithm = core::Algorithm::kPushCancelFlow;
  core::ReducerConfig reducer;
  FaultPlan faults;  // event times are in simulation time units
  std::uint64_t seed = 1;
  double tick_rate = 1.0;     ///< gossip sends per node per time unit
  double latency_min = 0.05;  ///< packet latency lower bound
  double latency_max = 0.5;   ///< packet latency upper bound (exclusive)
  InvariantConfig invariants;  ///< runtime invariant checking (see invariants.hpp)
};

// A note on node crashes and the oracle: unlike the synchronous engine
// (which processes faults at round boundaries when nothing is in flight), the
// asynchronous network always has packets in transit. The oracle's retarget
// therefore snapshots the survivors' local masses PLUS the mass still carried
// by queued deliveries on live links (each receiver's unreceived_mass() —
// additive shares for push-sum, last-writer-wins mirrors for the flow
// algorithms). Without the in-flight term the target is biased by whatever
// was on the wire at detection time — the historical bug this fixes.
class AsyncEngine {
 public:
  /// The engine stores its own copy of the topology, so temporaries are safe.
  AsyncEngine(net::Topology topology, std::span<const core::Mass> initial,
              AsyncEngineConfig config);

  /// Advances the simulation until `time` (processing all events due).
  void run_until(double time);

  /// Advances until oracle max error ≤ tol or until `deadline`. Checks the
  /// error every `check_interval` time units. Returns true on success.
  bool run_until_error(double tol, double deadline, double check_interval = 1.0);

  [[nodiscard]] double now() const noexcept { return now_; }
  /// Live access to the fault model between run_until() calls. Only the
  /// probabilistic knobs (loss / flip / state-flip / duplicate / reorder
  /// rates) may be changed; scheduled events are fixed at construction, and
  /// the churn event chains are seeded from the rates given at construction
  /// (setting churn_fail_prob afterwards starts no new chain).
  [[nodiscard]] FaultPlan& mutable_faults() noexcept { return config_.faults; }
  [[nodiscard]] std::size_t size() const noexcept { return fleet_->size(); }
  [[nodiscard]] const Oracle& oracle() const noexcept { return oracle_; }
  /// The state arena holding every node's protocol state, by node id. The
  /// mutable overload bypasses the engine (no oracle shift, no accounting).
  [[nodiscard]] const core::ArenaFleet& fleet() const noexcept { return *fleet_; }
  [[nodiscard]] core::ArenaFleet& fleet() noexcept { return *fleet_; }
  [[nodiscard]] std::vector<double> estimates(std::size_t k = 0) const;
  [[nodiscard]] double max_error(std::size_t k = 0) const;
  [[nodiscard]] std::size_t messages_delivered() const noexcept { return delivered_; }
  [[nodiscard]] bool node_alive(NodeId i) const { return alive_.at(i); }
  /// Wall-clock / throughput counters (kEvents phase; see support/perf.hpp).
  [[nodiscard]] const PerfCounters& perf() const noexcept { return perf_; }

  /// Cumulative fault telemetry — exactly what the invariant checkers see.
  [[nodiscard]] FaultExposure fault_exposure() const;

  /// The invariant monitor, or nullptr when checking is disabled. Checks run
  /// at every run_until() boundary (there is no quiescent round boundary in
  /// an asynchronous network, so only the in-flight-safe checkers fire).
  [[nodiscard]] const InvariantMonitor* invariants() const noexcept { return monitor_.get(); }
  /// Runs all invariant checkers against the current state immediately.
  void check_invariants_now();

  // ---- checkpoint / restore (sim/checkpoint.cpp; DESIGN.md §8) ----

  /// Serializes the engine's complete mutable state between run_until()s.
  /// kFull saves the pending event heap verbatim (in-flight packets
  /// included) — restore continues bitwise-identically. kLightweight drops
  /// the queued kDelivery events (FTPregel-style state-only snapshot): the
  /// blob shrinks by the in-flight traffic, the flow algorithms re-mirror
  /// the lost packets away, and push-sum loses the in-flight mass.
  [[nodiscard]] std::string save_checkpoint(CheckpointMode mode = CheckpointMode::kFull) const;

  /// Restores a checkpoint written by save_checkpoint into this engine, which
  /// must have been constructed with the identical topology, initial masses
  /// and config (validated via the blob's compatibility hash). Throws
  /// CheckpointError on truncated/corrupted/version-skewed blobs or an
  /// incompatible engine; header and compatibility validation happen before
  /// any state is touched, but a throw from deeper body corruption leaves the
  /// engine in an unspecified state — discard it.
  void restore(std::string_view checkpoint);

  /// FNV-1a hash of the bit-exact live protocol state (see the sync engine's
  /// state_fingerprint). Includes now() but not the pending queue, so it
  /// compares node-state agreement at a common simulation time.
  [[nodiscard]] std::uint64_t state_fingerprint() const;

 private:
  struct View;
  struct Event {
    double time;
    enum class Kind {
      kTick,
      kDelivery,
      kLinkFailure,
      kCrash,
      kDetect,
      kDataUpdate,
      kLinkHeal,     // scheduled or churn: the link transports again
      kRejoin,       // a crashed node returns with fresh state
      kDetectUp,     // detector reports a healed link up at one endpoint
      kFalseDetect,  // detector false positive: live link wrongly excluded
      kFalseClear,   // the false positive clears ("detected up")
      kChurnFail,    // churn chain: the link fails
    } kind;
    NodeId a = 0;  // tick/crash/rejoin: node; delivery: sender; link: endpoint a
    NodeId b = 0;  // delivery: receiver; link: endpoint b; detect: peer
    std::uint64_t seq = 0;  // tie-break for deterministic ordering
    double aux = 0.0;       // false detect: clear delay
    core::Packet packet;
  };
  struct EventOrder {
    bool operator()(const Event& x, const Event& y) const {
      if (x.time != y.time) return x.time > y.time;  // min-heap by time
      return x.seq > y.seq;
    }
  };

  /// The checkpoint body's one field list (sim/checkpoint.cpp): save runs it
  /// on a const engine with a BinaryWriter, restore with a BinaryReader.
  template <class Io, class Self>
  static void checkpoint_fields(Io& io, Self& self, CheckpointMode mode);
  void push(Event e);
  void handle(const Event& e);
  void schedule_tick(NodeId node);
  void fail_link(NodeId a, NodeId b, bool independent);
  /// Revives a dead link between live nodes: packets queued before the heal
  /// are lost (heal-epoch purge), detectors report "up" after the detection
  /// delay, and the churn fail chain restarts. Returns false if the link was
  /// not dead.
  bool revive_link(NodeId a, NodeId b);
  /// Snapshots live local masses + in-flight mass and retargets the oracle.
  void retarget_now();
  /// Appends the mass carried by queued deliveries on live links to `masses`
  /// (the crash-retarget snapshot). See the class comment.
  void append_in_flight_mass(std::vector<core::Mass>& masses) const;
  /// True if the delivery was queued before its link's last heal (the packet
  /// was physically lost in the outage).
  [[nodiscard]] bool stale_delivery(const Event& e) const;

  net::Topology topology_;
  AsyncEngineConfig config_;
  std::unique_ptr<core::ArenaFleet> fleet_;
  std::vector<Rng> node_rngs_;
  Rng net_rng_;
  Oracle oracle_;
  std::vector<core::Mass> initial_;  // per node — a rejoining node restarts from this
  std::vector<bool> alive_;
  net::LinkSet dead_links_;
  /// Links that failed independently of a crash (scheduled or churn); a
  /// rejoin does not revive these.
  net::LinkSet cut_links_;
  /// Live links currently excluded by a failure-detector false positive.
  net::LinkSet falsely_excluded_;
  /// Per healed link: the event seq at heal time. Earlier-queued deliveries
  /// were in flight when the cable was cut and are dropped on arrival.
  std::map<std::pair<NodeId, NodeId>, std::uint64_t> heal_seq_;
  std::map<std::pair<NodeId, NodeId>, double> last_arrival_;  // FIFO clamp per directed link
  EventHeap<Event, EventOrder> queue_;
  double now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::size_t delivered_ = 0;
  bool pending_retarget_ = false;
  std::size_t pending_detects_ = 0;  // kDetect events scheduled but not handled
  std::size_t pending_up_notices_ = 0;  // kDetectUp events scheduled but not handled
  std::unique_ptr<InvariantMonitor> monitor_;
  PerfCounters perf_;
  std::size_t link_failures_fired_ = 0;
  std::size_t crashes_fired_ = 0;
  std::size_t data_updates_fired_ = 0;
  std::size_t link_heals_fired_ = 0;
  std::size_t rejoins_fired_ = 0;
  std::size_t false_detects_fired_ = 0;
  std::size_t false_clears_fired_ = 0;
  std::size_t duplicates_injected_ = 0;
};

}  // namespace pcf::sim
