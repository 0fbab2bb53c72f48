#include "runtime/threaded_runtime.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace pcf::runtime {

ThreadedRuntime::ThreadedRuntime(net::Topology topology,
                                 std::span<const core::Mass> initial, RuntimeConfig config)
    : topology_(topology), config_(std::move(config)), dead_links_(topology_) {
  PCF_CHECK_MSG(initial.size() == topology.size(), "one initial mass per node required");
  if (config_.num_threads == 0) {
    config_.num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  config_.num_threads = std::min(config_.num_threads, topology.size());

  const Rng base(config_.seed);
  fleet_ = std::make_unique<core::ArenaFleet>(config_.algorithm, config_.reducer, topology_,
                                              initial);
  for (net::NodeId i = 0; i < topology.size(); ++i) {
    node_rngs_.push_back(base.fork(i));
    mailboxes_.push_back(std::make_unique<Mailbox>(config_.mailbox_capacity));
  }
  shards_.resize(config_.num_threads);
  for (net::NodeId i = 0; i < topology.size(); ++i) {
    shards_[i % config_.num_threads].push_back(i);
  }
}

std::size_t ThreadedRuntime::drain_node(net::NodeId i) {
  const auto envelopes = mailboxes_[i]->drain();
  for (const auto& env : envelopes) fleet_->receive(i, env.from, env.packet);
  return envelopes.size();
}

void ThreadedRuntime::deliver(std::size_t worker_index, net::NodeId to, Envelope envelope,
                              std::size_t& delivered) {
  if (config_.mailbox_capacity == 0) {
    mailboxes_[to]->push(std::move(envelope));
    return;
  }
  // Bounded mode. A blocking push here can deadlock: the destination's owner
  // may already be parked at the step barrier (it will not drain again until
  // *this* worker arrives too). So: fail fast, make progress by draining our
  // own shard (frees peers blocked on us, models "receiver busy"), retry
  // once, and if the box is still full shed the packet — gossip reductions
  // treat that exactly like wire loss, and the drop is counted.
  if (mailboxes_[to]->try_push(envelope)) return;
  for (const net::NodeId n : shards_[worker_index]) delivered += drain_node(n);
  if (mailboxes_[to]->try_push(std::move(envelope))) return;
  dropped_.fetch_add(1, std::memory_order_relaxed);
}

void ThreadedRuntime::worker(std::size_t worker_index, std::size_t steps_per_node,
                             std::barrier<>& step_barrier) {
  // Workers only ever mutate their own shard's nodes (node-disjoint rows of
  // the shared fleet); cross-thread interaction is exclusively via
  // mailboxes. The per-step barrier makes gossip steps globally interleave:
  // without it, an OS that runs threads to completion (e.g. a single-core
  // box) would let one worker fire its entire budget of sends before anyone
  // replies — one giant burst instead of an iterative exchange, and the
  // computation barely mixes.
  // Deliveries are counted locally and folded into the shared total once,
  // so workers do not contend on one atomic per packet.
  std::size_t delivered = 0;
  for (std::size_t step = 0; step < steps_per_node; ++step) {
    for (const net::NodeId i : shards_[worker_index]) {
      delivered += drain_node(i);
      auto out = fleet_->make_message(i, node_rngs_[i]);
      if (!out) continue;
      if (dead_links_.contains(i, out->to)) continue;  // cable cut
      deliver(worker_index, out->to, {i, std::move(out->packet)}, delivered);
    }
    step_barrier.arrive_and_wait();
  }
  delivered_.fetch_add(delivered, std::memory_order_relaxed);
}

void ThreadedRuntime::run(std::size_t steps_per_node) {
  {
    const auto timer = perf_.time(PerfCounters::Phase::kRun);
    workers_active_.store(true, std::memory_order_release);
    std::barrier step_barrier(static_cast<std::ptrdiff_t>(config_.num_threads));
    std::vector<std::thread> workers;
    workers.reserve(config_.num_threads);
    for (std::size_t w = 0; w < config_.num_threads; ++w) {
      workers.emplace_back(
          [this, w, steps_per_node, &step_barrier] { worker(w, steps_per_node, step_barrier); });
    }
    for (auto& t : workers) t.join();
    workers_active_.store(false, std::memory_order_release);
  }
  // Quiesce: receives never generate packets, so one drain pass empties all
  // in-flight traffic.
  {
    const auto timer = perf_.time(PerfCounters::Phase::kDrain);
    std::size_t delivered = 0;
    for (net::NodeId i = 0; i < fleet_->size(); ++i) delivered += drain_node(i);
    delivered_.fetch_add(delivered, std::memory_order_relaxed);
  }
  perf_.rounds += steps_per_node;
  perf_.deliveries = delivered_.load(std::memory_order_relaxed);
  perf_.mailbox_dropped = dropped_.load(std::memory_order_relaxed);
  std::uint64_t blocked = 0;
  std::uint64_t rejected = 0;
  std::uint64_t watermark = 0;
  for (const auto& box : mailboxes_) {
    const Mailbox::Stats s = box->stats();
    blocked += s.blocked_pushes;
    rejected += s.rejected_pushes;
    watermark = std::max(watermark, s.high_watermark);
  }
  perf_.mailbox_blocked_pushes = blocked;
  perf_.mailbox_rejected_pushes = rejected;
  perf_.mailbox_high_watermark = watermark;
}

void ThreadedRuntime::fail_link(net::NodeId a, net::NodeId b) {
  // Workers read dead_links_ lock-free; mutating it mid-phase would be a data
  // race (and was, before this guard — found by tsan on the bench harness).
  PCF_CHECK_MSG(!workers_active(), "fail_link while a run() phase is active");
  PCF_CHECK_MSG(topology_.has_edge(a, b), "fail_link: no such link");
  if (!dead_links_.insert(a, b)) return;
  fleet_->on_link_down(a, b);
  fleet_->on_link_down(b, a);
}

void ThreadedRuntime::heal_link(net::NodeId a, net::NodeId b) {
  // Same contract as fail_link: dead_links_ is read lock-free by workers.
  PCF_CHECK_MSG(!workers_active(), "heal_link while a run() phase is active");
  PCF_CHECK_MSG(topology_.has_edge(a, b), "heal_link: no such link");
  if (dead_links_.erase(a, b) == 0) return;
  fleet_->on_link_up(a, b);
  fleet_->on_link_up(b, a);
}

std::vector<double> ThreadedRuntime::estimates(std::size_t k) const {
  std::vector<double> out;
  out.reserve(fleet_->size());
  for (net::NodeId i = 0; i < fleet_->size(); ++i) out.push_back(fleet_->estimate(i, k));
  return out;
}

core::Mass ThreadedRuntime::total_mass() const {
  core::Mass total = fleet_->local_mass(0);
  for (net::NodeId i = 1; i < fleet_->size(); ++i) total += fleet_->local_mass(i);
  return total;
}

}  // namespace pcf::runtime
