#include "sim/engine_sync.hpp"

#include <algorithm>
#include <iterator>

#include "support/check.hpp"
#include "support/parallel.hpp"
#include "support/stats.hpp"

namespace pcf::sim {

namespace {
std::pair<NodeId, NodeId> norm_edge(NodeId a, NodeId b) {
  return a < b ? std::pair{a, b} : std::pair{b, a};
}
}  // namespace

// ---------------------------------------------------------------------------
// Round-phase ops: the round templates below are written once and
// instantiated per algorithm; ArenaOps<A> inlines the fleet's flat-array send
// and receive (the devirtualized hot path).
// ---------------------------------------------------------------------------

template <core::Algorithm A>
struct SyncEngine::ArenaOps {
  SyncEngine& e;
  using Send = core::ArenaFleet::Send;
  std::optional<Send> make(NodeId i) {
    return e.fleet_->make_message<A>(i, e.node_rngs_[i]);
  }
  void deliver(NodeId to, NodeId from, std::uint32_t to_slot, const core::Packet& p) {
    e.fleet_->receive<A>(to, from, static_cast<std::size_t>(to_slot), p);
  }
  [[nodiscard]] std::size_t wire_masses(NodeId /*i*/) const { return e.fleet_->wire_masses(); }
};

/// Read-only adapter the invariant checkers observe the engine through.
struct SyncEngine::View final : SystemView {
  explicit View(const SyncEngine& e) : engine(e) {}
  [[nodiscard]] const net::Topology& topology() const override { return engine.topology_; }
  [[nodiscard]] core::Algorithm algorithm() const override { return engine.config_.algorithm; }
  [[nodiscard]] double time() const override { return static_cast<double>(engine.round_); }
  [[nodiscard]] bool alive(NodeId i) const override { return engine.alive_.at(i); }
  [[nodiscard]] const core::Reducer& node(NodeId i) const override { return engine.nodes_.at(i); }
  [[nodiscard]] const core::ArenaFleet& fleet() const override { return *engine.fleet_; }
  [[nodiscard]] bool link_dead(NodeId a, NodeId b) const override {
    return engine.dead_links_.count(norm_edge(a, b)) != 0;
  }
  [[nodiscard]] const Oracle& oracle() const override { return engine.oracle_; }
  [[nodiscard]] FaultExposure faults() const override {
    const FaultPlan& plan = engine.config_.faults;
    FaultExposure f;
    // Crossing delivery mirrors stale flows, so conservation is transiently
    // broken even at round boundaries — treat it as permanently in flight.
    // Any reorder probability routes packets through the wire the same way,
    // and STAYS in flight after the knob is zeroed mid-run: the stale mirrors
    // the reordered rounds left behind take several clean rounds to
    // re-synchronize, so exact conservation cannot re-arm at the flip.
    f.in_flight = engine.config_.delivery == Delivery::kCrossing || plan.reorder_prob > 0.0 ||
                  engine.wire_reordered_;
    f.messages_dropped = engine.stats_.messages_dropped;
    f.messages_flipped = engine.stats_.messages_flipped;
    f.messages_duplicated = engine.stats_.messages_duplicated;
    f.state_flips = engine.stats_.state_flips;
    f.lossy_env = plan.message_loss_prob > 0.0 || plan.bit_flip_prob > 0.0 ||
                  plan.state_flip_prob > 0.0;
    f.any_bit_flips = plan.bit_flip_any_bit &&
                      (plan.bit_flip_prob > 0.0 || engine.stats_.messages_flipped > 0);
    f.crash_settling = engine.pending_retarget_ || engine.retarget_after_wire_;
    f.link_failures = engine.next_link_failure_ + engine.explicit_link_failures_ +
                      engine.churn_failures_fired_;
    f.crashes = engine.crashes_fired_;
    f.data_updates = engine.next_data_update_ + engine.explicit_data_updates_;
    f.link_heals = engine.link_heals_fired_;
    f.rejoins = engine.rejoins_fired_;
    f.false_detects = engine.false_detects_fired_;
    f.false_clears = engine.false_clears_fired_;
    for (const auto& n : engine.pending_notices_) {
      if (n.up) ++f.pending_up_notices;
    }
    return f;
  }
  const SyncEngine& engine;
};

void SyncEngine::check_invariants(bool force) {
  if (!monitor_) return;
  if (!force && round_ % monitor_->config().check_every != 0) return;
  const View view(*this);
  monitor_->check(view);
}

void SyncEngine::check_invariants_now() { check_invariants(/*force=*/true); }

FaultExposure SyncEngine::fault_exposure() const { return View(*this).faults(); }

SyncEngine::SyncEngine(net::Topology topology, std::span<const core::Mass> initial,
                       SyncEngineConfig config)
    : topology_(topology),
      config_(std::move(config)),
      fault_rng_(Rng(config_.seed).fork(topology.size() + 1)),
      oracle_(initial),
      initial_(initial.begin(), initial.end()) {
  PCF_CHECK_MSG(initial.size() == topology.size(), "one initial mass per node required");
  PCF_CHECK_MSG(topology.is_connected(), "topology must be connected");

  if (core::needs_tree_schedule(config_.algorithm) && !config_.reducer.tree) {
    config_.reducer.tree = std::make_shared<const net::TreeSchedule>(
        net::build_tree_schedule(topology_, config_.reducer.tree_kind));
  }

  const Rng base(config_.seed);
  fleet_ = std::make_unique<core::ArenaFleet>(config_.algorithm, config_.reducer, topology_,
                                              initial);
  nodes_ = core::make_facades(*fleet_, topology_, initial);
  node_rngs_.reserve(topology.size());
  for (NodeId i = 0; i < topology.size(); ++i) node_rngs_.push_back(base.fork(i));
  alive_.assign(topology.size(), true);
  rejoin_counts_.assign(topology.size(), 0);
  shards_ = std::max<std::size_t>(1, resolve_thread_count(config_.shards, topology.size()));

  // Events fire in time order regardless of the order given in the plan.
  const auto by_time = [](const auto& x, const auto& y) { return x.time < y.time; };
  std::sort(config_.faults.link_failures.begin(), config_.faults.link_failures.end(), by_time);
  std::sort(config_.faults.node_crashes.begin(), config_.faults.node_crashes.end(), by_time);
  std::sort(config_.faults.data_updates.begin(), config_.faults.data_updates.end(), by_time);
  std::sort(config_.faults.link_heals.begin(), config_.faults.link_heals.end(), by_time);
  std::sort(config_.faults.node_rejoins.begin(), config_.faults.node_rejoins.end(), by_time);
  std::sort(config_.faults.false_detects.begin(), config_.faults.false_detects.end(), by_time);
  for (const auto& f : config_.faults.link_failures) {
    PCF_CHECK_MSG(topology.has_edge(f.a, f.b),
                  "fault plan: no link " << f.a << "-" << f.b << " in topology");
  }
  for (const auto& c : config_.faults.node_crashes) {
    PCF_CHECK_MSG(c.node < topology.size(), "fault plan: crash node out of range");
  }
  for (const auto& u : config_.faults.data_updates) {
    PCF_CHECK_MSG(u.node < topology.size(), "fault plan: data update node out of range");
  }
  for (const auto& h : config_.faults.link_heals) {
    PCF_CHECK_MSG(topology.has_edge(h.a, h.b),
                  "fault plan: no link " << h.a << "-" << h.b << " to heal in topology");
  }
  for (const auto& r : config_.faults.node_rejoins) {
    PCF_CHECK_MSG(r.node < topology.size(), "fault plan: rejoin node out of range");
  }
  for (const auto& e : config_.faults.false_detects) {
    PCF_CHECK_MSG(topology.has_edge(e.a, e.b),
                  "fault plan: no link " << e.a << "-" << e.b << " to falsely detect");
    PCF_CHECK_MSG(e.clear_delay >= 0.0, "fault plan: negative false-detect clear delay");
  }

  if (config_.invariants.resolve_enabled()) {
    monitor_ = std::make_unique<InvariantMonitor>(config_.invariants);
    monitor_->install_default_checkers();
  }
}

void SyncEngine::fail_link(NodeId a, NodeId b, double physical_time, bool independent) {
  const auto edge = norm_edge(a, b);
  if (!dead_links_.insert(edge).second) return;  // already dead
  if (independent) cut_links_.insert(edge);
  const double due = physical_time + config_.faults.detection_delay;
  pending_notices_.push_back({due, a, b, false});
  pending_notices_.push_back({due, b, a, false});
  // Churn: every failure between live nodes heals after an Exp outage.
  // (Crash-induced failures are revived by the rejoin instead — a heal of a
  // link into a crashed node is meaningless and revive_link rejects it.)
  if (config_.faults.churn_heal_rate > 0.0 && alive_[a] && alive_[b]) {
    const double outage = fault_rng_.exponential(config_.faults.churn_heal_rate);
    churn_heals_.push_back({physical_time + outage, a, b});
  }
}

void SyncEngine::revive_link(NodeId a, NodeId b, double physical_time) {
  const auto edge = norm_edge(a, b);
  if (dead_links_.erase(edge) == 0) return;  // already up
  cut_links_.erase(edge);
  ++link_heals_fired_;
  // Drop stale down-notices for this edge (a failure whose detection delay
  // has not elapsed yet): the detector never reports a link that is back up.
  pending_notices_.erase(
      std::remove_if(pending_notices_.begin(), pending_notices_.end(),
                     [edge](const PendingNotice& n) {
                       return !n.up && norm_edge(n.node, n.peer) == edge;
                     }),
      pending_notices_.end());
  const double due = physical_time + config_.faults.detection_delay;
  pending_notices_.push_back({due, a, b, true});
  pending_notices_.push_back({due, b, a, true});
}

void SyncEngine::rejoin_node(NodeId node, double physical_time) {
  if (alive_[node]) return;
  alive_[node] = true;
  ++rejoins_fired_;
  ++rejoin_counts_[node];
  // The crashed node's state is gone: reset its arena rows in place to the
  // factory-fresh state from the initial mass (rejoin never grows the
  // arena). Its node RNG stream continues where it left off (a fresh
  // process, not a replay).
  fleet_->reset_node(node, initial_[node]);
  for (const NodeId peer : topology_.neighbors(node)) {
    const auto edge = norm_edge(node, peer);
    // Crash-induced link failures revive with the node; independently cut
    // links (scheduled/explicit/churn) stay down until their own heal.
    const bool stays_down = !alive_[peer] || cut_links_.count(edge) != 0;
    if (stays_down) {
      nodes_[node].on_link_down(peer);
    } else if (dead_links_.count(edge) != 0) {
      revive_link(node, peer, physical_time);
    }
  }
  // The returning mass re-enters the computation; once the recovery notices
  // have fired, the live nodes' conserved mass is the new target.
  pending_retarget_ = true;
}

void SyncEngine::deliver_notifications_due() {
  const auto now = static_cast<double>(round_);
  // Notify, then compact with remove_if: the old erase-in-place loop was
  // O(due × pending), quadratic when a hub crash floods pending_notices_
  // (one notice per incident edge, all due the same round).
  const auto due = [now](const PendingNotice& n) { return n.due_time <= now; };
  for (const auto& n : pending_notices_) {
    if (!due(n) || !alive_[n.node]) continue;
    if (n.up) {
      nodes_[n.node].on_link_up(n.peer);
    } else {
      nodes_[n.node].on_link_down(n.peer);
    }
  }
  pending_notices_.erase(
      std::remove_if(pending_notices_.begin(), pending_notices_.end(), due),
      pending_notices_.end());
}

void SyncEngine::process_due_faults() {
  const auto now = static_cast<double>(round_);
  auto& plan = config_.faults;
  while (next_link_failure_ < plan.link_failures.size() &&
         plan.link_failures[next_link_failure_].time <= now) {
    const auto& f = plan.link_failures[next_link_failure_++];
    fail_link(f.a, f.b, f.time, /*independent=*/true);
  }
  // Churn: each live link between live nodes fails independently this round.
  if (plan.churn_fail_prob > 0.0) {
    for (const auto& [a, b] : topology_.edges()) {
      if (!alive_[a] || !alive_[b] || dead_links_.count(norm_edge(a, b)) != 0) continue;
      if (fault_rng_.chance(plan.churn_fail_prob)) {
        ++churn_failures_fired_;
        fail_link(a, b, now, /*independent=*/true);
      }
    }
  }
  while (next_node_crash_ < plan.node_crashes.size() &&
         plan.node_crashes[next_node_crash_].time <= now) {
    const auto& c = plan.node_crashes[next_node_crash_++];
    if (!alive_[c.node]) continue;
    alive_[c.node] = false;
    ++crashes_fired_;
    for (const NodeId peer : topology_.neighbors(c.node)) {
      fail_link(c.node, peer, c.time, /*independent=*/false);
    }
    // The crashed node's mass left the computation; once the exclusion
    // notifications below have fired, the survivors' conserved mass is the
    // new target.
    pending_retarget_ = true;
  }
  while (next_node_rejoin_ < plan.node_rejoins.size() &&
         plan.node_rejoins[next_node_rejoin_].time <= now) {
    const auto& r = plan.node_rejoins[next_node_rejoin_++];
    rejoin_node(r.node, r.time);
  }
  while (next_link_heal_ < plan.link_heals.size() &&
         plan.link_heals[next_link_heal_].time <= now) {
    const auto& h = plan.link_heals[next_link_heal_++];
    if (alive_[h.a] && alive_[h.b]) revive_link(h.a, h.b, h.time);
  }
  if (!churn_heals_.empty()) {
    // Unordered small list: process and erase what is due.
    std::vector<LinkHealEvent> due;
    churn_heals_.erase(std::remove_if(churn_heals_.begin(), churn_heals_.end(),
                                      [&](const LinkHealEvent& h) {
                                        if (h.time > now) return false;
                                        due.push_back(h);
                                        return true;
                                      }),
                       churn_heals_.end());
    for (const auto& h : due) {
      if (alive_[h.a] && alive_[h.b]) revive_link(h.a, h.b, h.time);
    }
  }
  while (next_false_detect_ < plan.false_detects.size() &&
         plan.false_detects[next_false_detect_].time <= now) {
    const auto& e = plan.false_detects[next_false_detect_++];
    const auto edge = norm_edge(e.a, e.b);
    // Only a LIVE link can be falsely detected down; transport stays up.
    if (!alive_[e.a] || !alive_[e.b] || dead_links_.count(edge) != 0) continue;
    ++false_detects_fired_;
    nodes_[e.a].on_link_down(e.b);
    nodes_[e.b].on_link_down(e.a);
    falsely_excluded_.insert(edge);
    pending_clears_.push_back({e.time + e.clear_delay, e.a, e.b, 0.0});
  }
  if (!pending_clears_.empty()) {
    std::vector<FalseDetectEvent> due;
    pending_clears_.erase(std::remove_if(pending_clears_.begin(), pending_clears_.end(),
                                         [&](const FalseDetectEvent& e) {
                                           if (e.time > now) return false;
                                           due.push_back(e);
                                           return true;
                                         }),
                          pending_clears_.end());
    for (const auto& e : due) {
      const auto edge = norm_edge(e.a, e.b);
      if (falsely_excluded_.erase(edge) == 0) continue;
      // "Detected up" — unless the link genuinely died in the meantime.
      if (alive_[e.a] && alive_[e.b] && dead_links_.count(edge) == 0) {
        ++false_clears_fired_;
        nodes_[e.a].on_link_up(e.b);
        nodes_[e.b].on_link_up(e.a);
      }
    }
  }
  while (next_data_update_ < plan.data_updates.size() &&
         plan.data_updates[next_data_update_].time <= now) {
    const auto& u = plan.data_updates[next_data_update_++];
    if (!alive_[u.node]) continue;
    nodes_[u.node].update_data(u.delta);
    // A live update changes the conserved mass by exactly delta.
    oracle_.shift(u.delta);
  }
  deliver_notifications_due();
  if (pending_retarget_ && pending_notices_.empty()) {
    if (config_.delivery == Delivery::kSequential && plan.reorder_prob == 0.0) {
      // Nothing is ever in flight between rounds — the live nodes' masses are
      // the exact conserved total.
      oracle_.retarget(masses());
    } else {
      // Crossing (or reordered) mode: last round's packets mirrored stale
      // flows, so pairwise conservation (and with it the live nodes' mass
      // sum) is transiently broken at the round boundary. Defer the snapshot
      // until this round's wire_ has drained, when the mirrors have
      // re-synchronized.
      retarget_after_wire_ = true;
    }
    pending_retarget_ = false;
  }
}

void SyncEngine::fail_link_now(NodeId a, NodeId b) {
  PCF_CHECK_MSG(topology_.has_edge(a, b), "fail_link_now: no link " << a << "-" << b);
  if (!dead_links_.insert(norm_edge(a, b)).second) return;
  cut_links_.insert(norm_edge(a, b));
  ++explicit_link_failures_;
  if (alive_[a]) nodes_[a].on_link_down(b);
  if (alive_[b]) nodes_[b].on_link_down(a);
}

void SyncEngine::heal_link_now(NodeId a, NodeId b) {
  PCF_CHECK_MSG(topology_.has_edge(a, b), "heal_link_now: no link " << a << "-" << b);
  PCF_CHECK_MSG(alive_[a] && alive_[b],
                "heal_link_now: endpoint crashed (a rejoin revives its links)");
  const auto edge = norm_edge(a, b);
  if (dead_links_.erase(edge) == 0) return;  // already up
  cut_links_.erase(edge);
  ++link_heals_fired_;
  pending_notices_.erase(
      std::remove_if(pending_notices_.begin(), pending_notices_.end(),
                     [edge](const PendingNotice& n) {
                       return !n.up && norm_edge(n.node, n.peer) == edge;
                     }),
      pending_notices_.end());
  nodes_[a].on_link_up(b);
  nodes_[b].on_link_up(a);
}

void SyncEngine::apply_data_update(NodeId node, const core::Mass& delta) {
  PCF_CHECK_MSG(node < nodes_.size(), "data update node out of range");
  PCF_CHECK_MSG(alive_[node], "data update on a crashed node");
  nodes_[node].update_data(delta);
  oracle_.shift(delta);
  ++explicit_data_updates_;
}

std::size_t SyncEngine::step() {
  {
    const auto timer = perf_.time(PerfCounters::Phase::kFaults);
    process_due_faults();
  }
  ++round_;

  wire_.clear();
  auto& plan = config_.faults;
  {
    const auto timer = perf_.time(PerfCounters::Phase::kGossip);
    if (plan.state_flip_prob > 0.0) {
      for (NodeId i = 0; i < nodes_.size(); ++i) {
        if (alive_[i] && fault_rng_.chance(plan.state_flip_prob)) {
          if (nodes_[i].corrupt_stored_flow(fault_rng_)) ++stats_.state_flips;
        }
      }
    }
    dispatch_send_phase();
  }
  {
    // Wire drain (crossing mode, or sequential with reordering enabled):
    // delivery after all sends, optionally with the round's order permuted.
    const auto timer = perf_.time(PerfCounters::Phase::kDelivery);
    dispatch_drain_phase();
  }
  if (retarget_after_wire_) {
    // Deferred crash retarget (crossing mode): the wire has drained and every
    // mirror is fresh again, so the survivors' mass sum is the true target.
    oracle_.retarget(masses());
    retarget_after_wire_ = false;
  }
  stats_.rounds = round_;
  perf_.rounds = round_;
  perf_.messages_sent = stats_.messages_sent;
  perf_.doubles_on_wire = stats_.doubles_sent;
  check_invariants(/*force=*/false);
  return round_;
}

template <typename Ops>
void SyncEngine::send_phase(Ops& ops) {
  auto& plan = config_.faults;
  // Any reorder probability routes packets through the wire even in
  // sequential mode — reordering needs the full round's packets in hand.
  const bool via_wire = config_.delivery == Delivery::kCrossing || plan.reorder_prob > 0.0;
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (!alive_[i]) continue;
    auto out = ops.make(i);
    if (!out) continue;
    ++stats_.messages_sent;
    stats_.doubles_sent += ops.wire_masses(i) * (out->packet.a.dim() + 1);
    // Transport faults, in physical order: a dead link transports nothing;
    // a live link may drop or corrupt the packet.
    if (dead_links_.count(norm_edge(i, out->to)) != 0 || !alive_[out->to]) {
      ++stats_.messages_dropped;
      continue;
    }
    if (plan.message_loss_prob > 0.0 && fault_rng_.chance(plan.message_loss_prob)) {
      ++stats_.messages_dropped;
      continue;
    }
    if (plan.bit_flip_prob > 0.0 && fault_rng_.chance(plan.bit_flip_prob)) {
      flip_random_bit(out->packet, fault_rng_, plan.bit_flip_any_bit);
      ++stats_.messages_flipped;
    }
    if (!via_wire) {
      const bool dup =
          plan.duplicate_prob > 0.0 && fault_rng_.chance(plan.duplicate_prob);
      ops.deliver(out->to, i, out->to_slot, out->packet);
      ++perf_.deliveries;
      if (dup) {
        // The duplicate arrives back-to-back with the original.
        ++stats_.messages_duplicated;
        ops.deliver(out->to, i, out->to_slot, out->packet);
        ++perf_.deliveries;
      }
    } else {
      if (plan.reorder_prob > 0.0) wire_reordered_ = true;
      wire_.push_back({i, out->to, out->to_slot, std::move(out->packet)});
    }
  }
}

template <typename Ops>
void SyncEngine::send_phase_sharded(Ops& ops) {
  // Preconditions (dispatch_send_phase): all packets go to the wire and the
  // send loop draws no fault_rng_ — only node_rngs_[i], which are per-node.
  // Each shard owns a contiguous node block; concatenating the shard wires
  // in block order reproduces the serial wire byte-for-byte.
  auto& plan = config_.faults;
  const std::size_t n = nodes_.size();
  const std::size_t shards = std::min(shards_, n);
  shard_wires_.resize(shards);
  struct Local {
    std::size_t sent = 0;
    std::size_t dropped = 0;
    std::size_t doubles = 0;
  };
  std::vector<Local> locals(shards);
  parallel_for_index(shards, shards, [&](std::size_t s) {
    const auto lo = static_cast<NodeId>(s * n / shards);
    const auto hi = static_cast<NodeId>((s + 1) * n / shards);
    auto& wire = shard_wires_[s];
    wire.clear();
    Local& local = locals[s];
    for (NodeId i = lo; i < hi; ++i) {
      if (!alive_[i]) continue;
      auto out = ops.make(i);
      if (!out) continue;
      ++local.sent;
      local.doubles += ops.wire_masses(i) * (out->packet.a.dim() + 1);
      if (dead_links_.count(norm_edge(i, out->to)) != 0 || !alive_[out->to]) {
        ++local.dropped;
        continue;
      }
      wire.push_back({i, out->to, out->to_slot, std::move(out->packet)});
    }
  });
  for (std::size_t s = 0; s < shards; ++s) {
    stats_.messages_sent += locals[s].sent;
    stats_.messages_dropped += locals[s].dropped;
    stats_.doubles_sent += locals[s].doubles;
    wire_.insert(wire_.end(), std::make_move_iterator(shard_wires_[s].begin()),
                 std::make_move_iterator(shard_wires_[s].end()));
  }
  // Same flag the serial loop sets per pushed packet.
  if (plan.reorder_prob > 0.0 && !wire_.empty()) wire_reordered_ = true;
}

template <typename Ops>
void SyncEngine::drain_phase(Ops& ops) {
  auto& plan = config_.faults;
  // Reordering: each packet is independently selected with reorder_prob; the
  // selected ones are delayed behind every unselected packet, in an order
  // shuffled among themselves — a bounded (within-round) delivery delay.
  std::vector<std::size_t> order(wire_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  if (plan.reorder_prob > 0.0 && wire_.size() > 1) {
    std::vector<std::size_t> on_time;
    std::vector<std::size_t> delayed;
    on_time.reserve(wire_.size());
    for (std::size_t i = 0; i < wire_.size(); ++i) {
      (fault_rng_.chance(plan.reorder_prob) ? delayed : on_time).push_back(i);
    }
    fault_rng_.shuffle(std::span<std::size_t>(delayed));
    order = std::move(on_time);
    order.insert(order.end(), delayed.begin(), delayed.end());
  }
  for (const std::size_t idx : order) {
    const auto& msg = wire_[idx];
    if (!alive_[msg.to]) continue;
    const bool dup = plan.duplicate_prob > 0.0 && fault_rng_.chance(plan.duplicate_prob);
    ops.deliver(msg.to, msg.from, msg.to_slot, msg.packet);
    ++perf_.deliveries;
    if (dup) {
      ++stats_.messages_duplicated;
      ops.deliver(msg.to, msg.from, msg.to_slot, msg.packet);
      ++perf_.deliveries;
    }
  }
}

template <typename Ops>
void SyncEngine::drain_phase_sharded(Ops& ops) {
  // Preconditions (dispatch_drain_phase): no duplicate/reorder draws, so
  // delivery order only matters PER RECEIVER, and a receive mutates only the
  // receiver's own arena rows. Stable counting sort by receiver, then shard
  // over contiguous receiver ranges — each receiver sees its packets in the
  // exact serial order, so the post-drain state is byte-identical.
  const std::size_t n = nodes_.size();
  const std::size_t m = wire_.size();
  drain_offsets_.assign(n + 1, 0);
  for (const InFlight& msg : wire_) ++drain_offsets_[msg.to + 1];
  for (std::size_t r = 0; r < n; ++r) drain_offsets_[r + 1] += drain_offsets_[r];
  drain_sorted_.resize(m);
  {
    std::vector<std::size_t> cursor(drain_offsets_.begin(), drain_offsets_.end() - 1);
    for (std::size_t idx = 0; idx < m; ++idx) drain_sorted_[cursor[wire_[idx].to]++] = idx;
  }
  const std::size_t shards = std::min(shards_, n);
  std::vector<std::size_t> local_deliveries(shards, 0);
  parallel_for_index(shards, shards, [&](std::size_t s) {
    const std::size_t lo = s * n / shards;
    const std::size_t hi = (s + 1) * n / shards;
    std::size_t delivered = 0;
    for (std::size_t r = lo; r < hi; ++r) {
      if (!alive_[r]) continue;
      for (std::size_t p = drain_offsets_[r]; p < drain_offsets_[r + 1]; ++p) {
        const InFlight& msg = wire_[drain_sorted_[p]];
        ops.deliver(msg.to, msg.from, msg.to_slot, msg.packet);
        ++delivered;
      }
    }
    local_deliveries[s] = delivered;
  });
  for (const std::size_t d : local_deliveries) perf_.deliveries += d;
}

template <typename Ops>
void SyncEngine::run_gossip(Ops& ops, bool send_sharded) {
  if (send_sharded) {
    send_phase_sharded(ops);
  } else {
    send_phase(ops);
  }
}

template <typename Ops>
void SyncEngine::run_drain(Ops& ops, bool drain_sharded) {
  if (drain_sharded) {
    drain_phase_sharded(ops);
  } else {
    drain_phase(ops);
  }
}

void SyncEngine::dispatch_send_phase() {
  const auto& plan = config_.faults;
  const bool via_wire = config_.delivery == Delivery::kCrossing || plan.reorder_prob > 0.0;
  // Sharding needs a send loop with no shared-RNG draws (loss/flip) and no
  // cross-node state mutation (immediate delivery).
  const bool sharded = shards_ > 1 && nodes_.size() > 1 && via_wire &&
                       plan.message_loss_prob == 0.0 && plan.bit_flip_prob == 0.0;
  switch (config_.algorithm) {
    case core::Algorithm::kPushSum: {
      ArenaOps<core::Algorithm::kPushSum> ops{*this};
      run_gossip(ops, sharded);
      return;
    }
    case core::Algorithm::kPushFlow: {
      ArenaOps<core::Algorithm::kPushFlow> ops{*this};
      run_gossip(ops, sharded);
      return;
    }
    case core::Algorithm::kPushCancelFlow: {
      ArenaOps<core::Algorithm::kPushCancelFlow> ops{*this};
      run_gossip(ops, sharded);
      return;
    }
    case core::Algorithm::kFlowUpdating: {
      ArenaOps<core::Algorithm::kFlowUpdating> ops{*this};
      run_gossip(ops, sharded);
      return;
    }
    case core::Algorithm::kCorrectionAllreduce: {
      ArenaOps<core::Algorithm::kCorrectionAllreduce> ops{*this};
      run_gossip(ops, sharded);
      return;
    }
    case core::Algorithm::kFuMassHybrid: {
      ArenaOps<core::Algorithm::kFuMassHybrid> ops{*this};
      run_gossip(ops, sharded);
      return;
    }
  }
}

void SyncEngine::dispatch_drain_phase() {
  const auto& plan = config_.faults;
  // Sharding needs a drain with no per-delivery fault_rng_ draws.
  const bool sharded = shards_ > 1 && wire_.size() > 1 && plan.duplicate_prob == 0.0 &&
                       plan.reorder_prob == 0.0;
  switch (config_.algorithm) {
    case core::Algorithm::kPushSum: {
      ArenaOps<core::Algorithm::kPushSum> ops{*this};
      run_drain(ops, sharded);
      return;
    }
    case core::Algorithm::kPushFlow: {
      ArenaOps<core::Algorithm::kPushFlow> ops{*this};
      run_drain(ops, sharded);
      return;
    }
    case core::Algorithm::kPushCancelFlow: {
      ArenaOps<core::Algorithm::kPushCancelFlow> ops{*this};
      run_drain(ops, sharded);
      return;
    }
    case core::Algorithm::kFlowUpdating: {
      ArenaOps<core::Algorithm::kFlowUpdating> ops{*this};
      run_drain(ops, sharded);
      return;
    }
    case core::Algorithm::kCorrectionAllreduce: {
      ArenaOps<core::Algorithm::kCorrectionAllreduce> ops{*this};
      run_drain(ops, sharded);
      return;
    }
    case core::Algorithm::kFuMassHybrid: {
      ArenaOps<core::Algorithm::kFuMassHybrid> ops{*this};
      run_drain(ops, sharded);
      return;
    }
  }
}

void SyncEngine::run(std::size_t rounds) {
  for (std::size_t r = 0; r < rounds; ++r) step();
}

RunStats SyncEngine::run_until_error(double tol, std::size_t max_rounds) {
  PCF_CHECK_MSG(tol > 0.0, "tolerance must be positive");
  stats_.reached_target = false;
  for (std::size_t r = 0; r < max_rounds; ++r) {
    step();
    if (max_error() <= tol) {
      stats_.reached_target = true;
      break;
    }
  }
  return stats_;
}

RunStats SyncEngine::run_until_fixed_point(std::size_t max_rounds, std::size_t window) {
  core::FixedPointStop detector(window);
  stats_.reached_target = false;
  for (std::size_t r = 0; r < max_rounds; ++r) {
    step();
    if (detector.observe(estimates())) {
      stats_.reached_target = true;
      break;
    }
  }
  return stats_;
}

std::vector<double> SyncEngine::estimates(std::size_t k) const {
  std::vector<double> out;
  out.reserve(nodes_.size());
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (alive_[i]) out.push_back(nodes_[i].estimate(k));
  }
  return out;
}

std::vector<core::Mass> SyncEngine::masses() const {
  std::vector<core::Mass> out;
  out.reserve(nodes_.size());
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (alive_[i]) out.push_back(nodes_[i].local_mass());
  }
  return out;
}

double SyncEngine::max_error(std::size_t k) const {
  double worst = 0.0;
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (alive_[i]) worst = std::max(worst, oracle_.error_of(nodes_[i].estimate(k), k));
  }
  return worst;
}

double SyncEngine::median_error(std::size_t k) const { return error_quantile(0.5, k); }

double SyncEngine::error_quantile(double q, std::size_t k) const {
  std::vector<double> errs;
  errs.reserve(nodes_.size());
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (alive_[i]) errs.push_back(oracle_.error_of(nodes_[i].estimate(k), k));
  }
  return quantile(errs, q);
}

double SyncEngine::max_abs_flow() const {
  double best = 0.0;
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (alive_[i]) best = std::max(best, nodes_[i].max_abs_flow_component());
  }
  return best;
}

TracePoint SyncEngine::sample(std::size_t k) const {
  std::vector<double> errs;
  errs.reserve(nodes_.size());
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (alive_[i]) errs.push_back(oracle_.error_of(nodes_[i].estimate(k), k));
  }
  TracePoint p;
  p.time = static_cast<double>(round_);
  p.max_error = max_value(errs);
  p.median_error = median(errs);
  RunningStats rs;
  for (double e : errs) rs.add(e);
  p.mean_error = rs.mean();
  p.max_abs_flow = max_abs_flow();
  return p;
}

}  // namespace pcf::sim
