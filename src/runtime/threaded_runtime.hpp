// Threaded gossip runtime — the algorithms outside the simulator.
//
// Every algorithm from src/core runs here unmodified: one core::ArenaFleet
// holds all node state, nodes are sharded over worker threads, and packets
// travel through per-node mailboxes. Within a step, workers interleave
// freely — delivery timing and crossings are real nondeterminism, not
// simulated; a lightweight per-step barrier only paces the workers so that
// gossip actually alternates (see worker()). Per directed link FIFO holds
// because only the owning thread of the sender produces packets for that
// link and mailboxes preserve push order.
//
// This is the evidence that the reduction algorithms depend only on
// point-to-point messaging — the same property that would let them run over
// MPI or sockets.
#pragma once

#include <atomic>
#include <barrier>
#include <memory>
#include <thread>
#include <vector>

#include "core/arena.hpp"
#include "core/reducer.hpp"
#include "net/link_set.hpp"
#include "net/topology.hpp"
#include "runtime/mailbox.hpp"
#include "support/perf.hpp"

namespace pcf::runtime {

struct RuntimeConfig {
  core::Algorithm algorithm = core::Algorithm::kPushCancelFlow;
  core::ReducerConfig reducer;
  std::uint64_t seed = 1;
  /// Worker threads; nodes are sharded round-robin. 0 = hardware concurrency.
  std::size_t num_threads = 0;
  /// Per-node mailbox capacity; 0 = unbounded (the original behavior). With a
  /// bound, workers use non-blocking pushes and drain their own shard while a
  /// destination box is full — backpressure instead of unbounded queues; the
  /// pressure shows up in PerfCounters::mailbox_rejected_pushes. A blocking
  /// push would deadlock against the per-step barrier (a full hub mailbox
  /// whose owner is already waiting at the barrier), which is why the bounded
  /// path retries with drains instead of waiting.
  std::size_t mailbox_capacity = 0;
};

class ThreadedRuntime {
 public:
  /// The runtime stores its own copy of the topology, so temporaries are safe.
  ThreadedRuntime(net::Topology topology, std::span<const core::Mass> initial,
                  RuntimeConfig config);

  /// Runs a phase in which every node performs `steps_per_node` gossip sends
  /// (plus however many receives arrive), then drains all in-flight packets.
  /// Blocks until the phase is complete. May be called repeatedly.
  void run(std::size_t steps_per_node);

  /// Injects a permanent link failure. Must be called between run() phases:
  /// workers read dead_links_ without a lock, so mutating it mid-phase is a
  /// data race. Calling this while workers are active throws
  /// ContractViolation instead of racing.
  void fail_link(net::NodeId a, net::NodeId b);

  /// Heals a previously failed link: both endpoints re-admit the neighbor
  /// (ArenaFleet::on_link_up) with zeroed flows. Same phase-boundary contract as
  /// fail_link — throws ContractViolation while workers are active.
  void heal_link(net::NodeId a, net::NodeId b);

  [[nodiscard]] std::size_t size() const noexcept { return fleet_->size(); }
  [[nodiscard]] std::vector<double> estimates(std::size_t k = 0) const;
  [[nodiscard]] core::Mass total_mass() const;
  /// Every node's protocol state, by node id. Read it between run() phases:
  /// workers write their shard's rows while a phase is active.
  [[nodiscard]] const core::ArenaFleet& fleet() const noexcept { return *fleet_; }
  /// Packets delivered so far. Workers count locally and fold their totals
  /// in when they finish, so the value is exact at phase boundaries (between
  /// run() calls) and lags the true count while a phase is running.
  [[nodiscard]] std::size_t messages_delivered() const noexcept { return delivered_.load(); }
  /// True while a run() phase has worker threads up (test/guard hook).
  [[nodiscard]] bool workers_active() const noexcept {
    return workers_active_.load(std::memory_order_acquire);
  }
  /// Wall-clock per phase (kRun / kDrain) and step counters.
  [[nodiscard]] const PerfCounters& perf() const noexcept { return perf_; }

 private:
  void worker(std::size_t worker_index, std::size_t steps_per_node, std::barrier<>& step_barrier);
  /// Delivers node i's queued envelopes; returns how many.
  std::size_t drain_node(net::NodeId i);
  /// `delivered` is the calling worker's local delivery count (bounded mode
  /// drains the worker's own shard while a destination box is full).
  void deliver(std::size_t worker_index, net::NodeId to, Envelope envelope,
               std::size_t& delivered);

  net::Topology topology_;
  RuntimeConfig config_;
  /// One fleet shared by every worker. Not lock-guarded: during run() a
  /// worker touches only its own shard's nodes, and the fleet's per-node
  /// operations write only that node's rows (core/arena.hpp, concurrency
  /// note), so concurrent accesses are node-disjoint. Cold-path calls
  /// (link down/up) run only while workers are down (fail_link/heal_link
  /// check workers_active()). DESIGN.md §11 has the argument.
  std::unique_ptr<core::ArenaFleet> fleet_;
  std::vector<Rng> node_rngs_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<std::vector<net::NodeId>> shards_;  // nodes per worker
  net::LinkSet dead_links_;
  std::atomic<std::size_t> delivered_{0};  // folded in per worker, per phase
  std::atomic<std::uint64_t> dropped_{0};  // bounded mode: envelopes shed after retry
  std::atomic<bool> workers_active_{false};
  PerfCounters perf_;  // phase-disciplined: written only while workers are down
};

}  // namespace pcf::runtime
