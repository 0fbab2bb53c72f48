// Process-per-shard gossip runtime over loopback UDP — the algorithms on a
// real, lossy transport.
//
// Every algorithm from src/core runs here unmodified (the same property the
// ThreadedRuntime demonstrates for threads): nodes are sharded round-robin
// over OS processes, each holding one core::ArenaFleet over the full topology
// and driving only its own nodes' rows; same-shard packets are delivered
// directly, cross-shard packets travel as checksummed UDP datagrams
// (net/transport.hpp). Nothing injects faults — loss, duplication and
// reordering are whatever the kernel actually does, MEASURED at the receiver
// via per-directed-link sequence numbers and reported in the trial counters.
// Backpressure is real too: the receive thread pushes into a bounded mailbox
// (runtime/mailbox.hpp); when it blocks, the socket buffer fills and the
// kernel drops datagrams — the overflow shows up as measured loss, not as a
// growing queue.
//
// Robustness machinery on top of the transport:
//  * heartbeat failure detector — every shard beacons every other shard;
//    a peer silent past the timeout triggers ArenaFleet::on_link_down for all
//    cross-shard edges into it, and a resumed beacon triggers on_link_up —
//    including FALSE positives when a merely-stalled peer revives;
//  * supervision — each shard periodically writes an atomic checkpoint of
//    its nodes' arena rows, RNG streams and link sequence tables; the parent
//    supervises with waitpid, and a child that dies by signal (real
//    SIGKILL) is re-forked with a bumped epoch and restores from its last
//    checkpoint. Restart epochs ride in the heartbeat frames so peers can
//    reset their sequence expectations for the reborn shard.
//
// The parent binds ALL shard sockets before forking (ephemeral ports,
// getsockname) and keeps them open, so children learn the full port map by
// inheritance, a restarted child reuses the very same socket (no rebind, no
// port collision), and datagrams sent to a dead shard queue in its kernel
// buffer until the successor drains them — or overflow into measured loss.
//
// Determinism: NONE of this is deterministic — scheduling, kernel drops and
// wall-clock timing are real. The contract is the paper's: converge within
// the algorithm's error envelope under whatever faults were measured, judged
// by reconciling the measured fault profile against the differential trust
// table (sim::algorithm_trusted), never by byte-identical output.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/reducer.hpp"
#include "net/topology.hpp"
#include "runtime/udp.hpp"

namespace pcf::runtime {

struct SocketRuntimeConfig {
  core::Algorithm algorithm = core::Algorithm::kPushCancelFlow;
  core::ReducerConfig reducer;
  std::uint64_t seed = 1;
  /// Shard processes; nodes are assigned round-robin (node % num_shards).
  std::size_t num_shards = 4;
  /// Gossip sends per node (the ThreadedRuntime's steps_per_node contract).
  std::size_t steps_per_node = 600;
  /// Sleep between gossip steps; 0 runs flat out (maximum backpressure).
  int step_pacing_us = 0;
  /// Bounded RX mailbox per shard; 0 = unbounded (disables backpressure).
  std::size_t mailbox_capacity = 256;
  /// Requested SO_RCVBUF. Small values turn slow consumption into kernel
  /// drops — i.e. into measured UDP loss. 0 keeps the system default.
  int socket_recv_buffer = 4096;
  /// EADDRINUSE retries when binding (busy CI runners).
  int bind_attempts = 5;
  int heartbeat_period_ms = 10;
  /// A peer silent this long is reported down to the reducers.
  int heartbeat_timeout_ms = 100;
  /// Checkpoint cadence in gossip steps; 0 disables checkpoints (a killed
  /// shard then restarts from its initial state).
  std::size_t checkpoint_every_steps = 50;
  /// Receive-only tail after the step budget: the shard keeps draining,
  /// heartbeating and answering detectors so late peers (e.g. a restarted
  /// shard catching up) still converge against it.
  int linger_ms = 300;
  /// Supervisor gives up restarting a shard after this many signal deaths.
  std::size_t max_restarts = 3;
  /// Hard wall-clock cap on the whole trial; on expiry the supervisor kills
  /// the remaining children and reports the run incomplete.
  int trial_timeout_ms = 120000;
  /// Directory for checkpoints and per-shard result files. Required.
  std::string run_dir;
};

/// Faults the SUPERVISOR injects into the process tree (the one place where
/// injection is honest: a SIGKILL is a real process death, a SIGSTOP a real
/// stall — what they do to the computation is still only measured).
struct ChaosPlan {
  int kill_shard = -1;  ///< SIGKILL this shard once (-1 = never)…
  int kill_after_ms = 0;  ///< …this long after launch
  int stall_shard = -1;  ///< SIGSTOP this shard once (-1 = never)…
  int stall_after_ms = 0;  ///< …this long after launch…
  int stall_ms = 0;  ///< …and SIGCONT it after this long (detector false positive)
};

/// Datagram bookkeeping from one shard's perspective (its own RX path).
struct LinkCounters {
  std::uint64_t received = 0;    ///< data frames accepted (fresh sequence)
  std::uint64_t lost = 0;        ///< sequence gaps — datagrams the kernel dropped
  std::uint64_t duplicated = 0;  ///< repeated sequence numbers dropped
  std::uint64_t reordered = 0;   ///< stale sequence numbers dropped
};

struct ShardReport {
  std::uint32_t shard = 0;
  std::uint32_t epoch = 0;  ///< 0 = never restarted
  std::uint64_t steps_completed = 0;
  /// Step the final incarnation restored from (0 = started fresh).
  std::uint64_t restored_from_step = 0;
  bool produced = false;  ///< result file present and parseable

  std::uint64_t datagrams_sent = 0;
  std::uint64_t frames_rejected = 0;
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t detector_downs = 0;
  std::uint64_t detector_ups = 0;
  /// Backpressure split (Mailbox::Stats): the RX thread uses blocking push(),
  /// so stalls show up as blocked_pushes; rejected_pushes counts failed
  /// try_push() and stays 0 under the current RX path — reported anyway so the
  /// schema does not change if a fail-fast producer is ever added.
  std::uint64_t mailbox_blocked_pushes = 0;
  std::uint64_t mailbox_rejected_pushes = 0;
  std::uint64_t mailbox_high_watermark = 0;
  /// RX accounting per sending peer shard (index = peer shard id; the entry
  /// at this shard's own index stays zero).
  std::vector<LinkCounters> rx_from;

  std::vector<net::NodeId> nodes;
  std::vector<double> estimates;     ///< aligned with `nodes`
  std::vector<core::Mass> masses;    ///< aligned with `nodes`

  [[nodiscard]] LinkCounters rx_total() const noexcept;
};

struct SocketTrialReport {
  std::vector<ShardReport> shards;  ///< indexed by shard id
  std::size_t restarts = 0;         ///< signal deaths the supervisor recovered
  std::size_t failures = 0;         ///< shards lost for good (exit!=0, budget)
  bool completed = false;           ///< every shard produced a result

  [[nodiscard]] LinkCounters rx_total() const noexcept;
  [[nodiscard]] std::uint64_t datagrams_sent() const noexcept;
  /// Measured loss fraction: gaps / (gaps + accepted receives).
  [[nodiscard]] double measured_loss_rate() const noexcept;
  [[nodiscard]] double measured_duplicate_rate() const noexcept;
  [[nodiscard]] double measured_reorder_rate() const noexcept;
  /// Final estimate per node (NaN for nodes of shards that never reported).
  [[nodiscard]] std::vector<double> estimates_by_node(std::size_t num_nodes) const;
};

class SocketRuntime {
 public:
  /// The runtime copies topology and masses: children read them from the
  /// forked image, so they must outlive every fork.
  SocketRuntime(net::Topology topology, std::span<const core::Mass> initial,
                SocketRuntimeConfig config);

  /// Launches the process tree, supervises it to completion (restarting
  /// signal-killed shards from their checkpoints) and aggregates the
  /// per-shard results. Runs the whole configured trial; may be called once.
  [[nodiscard]] SocketTrialReport run(const ChaosPlan& chaos = {});

  [[nodiscard]] std::size_t shard_of(net::NodeId node) const noexcept {
    return node % config_.num_shards;
  }
  [[nodiscard]] const SocketRuntimeConfig& config() const noexcept { return config_; }

 private:
  [[nodiscard]] int child_main(std::uint32_t shard, std::uint32_t epoch);

  net::Topology topology_;
  SocketRuntimeConfig config_;
  std::vector<core::Mass> initial_;
  std::vector<UdpSocket> sockets_;      ///< parent-bound, inherited by children
  std::vector<std::uint16_t> ports_;    ///< shard -> UDP port
  bool ran_ = false;
};

}  // namespace pcf::runtime
