#include "sim/engine_async.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace pcf::sim {

namespace {
std::pair<NodeId, NodeId> norm_edge(NodeId a, NodeId b) {
  return a < b ? std::pair{a, b} : std::pair{b, a};
}
}  // namespace

/// Read-only adapter the invariant checkers observe the engine through.
struct AsyncEngine::View final : SystemView {
  explicit View(const AsyncEngine& e) : engine(e) {}
  [[nodiscard]] const net::Topology& topology() const override { return engine.topology_; }
  [[nodiscard]] core::Algorithm algorithm() const override { return engine.config_.algorithm; }
  [[nodiscard]] double time() const override { return engine.now_; }
  [[nodiscard]] bool alive(NodeId i) const override { return engine.alive_.at(i); }
  [[nodiscard]] const core::ArenaFleet& fleet() const override { return *engine.fleet_; }
  [[nodiscard]] bool link_dead(NodeId a, NodeId b) const override {
    return engine.dead_links_.contains(a, b);
  }
  [[nodiscard]] const Oracle& oracle() const override { return engine.oracle_; }
  [[nodiscard]] FaultExposure faults() const override {
    const FaultPlan& plan = engine.config_.faults;
    FaultExposure f;
    f.in_flight = true;  // an asynchronous network always has packets in transit
    f.lossy_env = plan.message_loss_prob > 0.0 || plan.bit_flip_prob > 0.0 ||
                  plan.state_flip_prob > 0.0;
    f.any_bit_flips = plan.bit_flip_any_bit && plan.bit_flip_prob > 0.0;
    f.crash_settling = engine.pending_retarget_;
    f.link_failures = engine.link_failures_fired_;
    f.crashes = engine.crashes_fired_;
    f.data_updates = engine.data_updates_fired_;
    f.link_heals = engine.link_heals_fired_;
    f.rejoins = engine.rejoins_fired_;
    f.false_detects = engine.false_detects_fired_;
    f.false_clears = engine.false_clears_fired_;
    f.messages_duplicated = engine.duplicates_injected_;
    f.pending_up_notices = engine.pending_up_notices_;
    return f;
  }
  const AsyncEngine& engine;
};

void AsyncEngine::check_invariants_now() {
  if (!monitor_) return;
  const View view(*this);
  monitor_->check(view);
}

FaultExposure AsyncEngine::fault_exposure() const { return View(*this).faults(); }

AsyncEngine::AsyncEngine(net::Topology topology, std::span<const core::Mass> initial,
                         AsyncEngineConfig config)
    : topology_(topology),
      config_(std::move(config)),
      net_rng_(Rng(config_.seed).fork(topology.size() + 7)),
      oracle_(initial),
      initial_(initial.begin(), initial.end()),
      dead_links_(topology_),
      cut_links_(topology_),
      falsely_excluded_(topology_) {
  PCF_CHECK_MSG(initial.size() == topology.size(), "one initial mass per node required");
  PCF_CHECK_MSG(config_.tick_rate > 0.0, "tick_rate must be positive");
  PCF_CHECK_MSG(config_.latency_min >= 0.0 && config_.latency_max >= config_.latency_min,
                "bad latency range");

  const Rng base(config_.seed);
  fleet_ = std::make_unique<core::ArenaFleet>(config_.algorithm, config_.reducer, topology_,
                                              initial);
  for (NodeId i = 0; i < topology.size(); ++i) node_rngs_.push_back(base.fork(i));
  alive_.assign(topology.size(), true);
  validate_fault_plan(config_.faults, topology);
  for (NodeId i = 0; i < topology.size(); ++i) schedule_tick(i);
  for (const auto& f : config_.faults.link_failures) {
    push({f.time, Event::Kind::kLinkFailure, f.a, f.b, 0, 0.0, {}});
  }
  for (const auto& c : config_.faults.node_crashes) {
    push({c.time, Event::Kind::kCrash, c.node, 0, 0, 0.0, {}});
  }
  for (const auto& u : config_.faults.data_updates) {
    Event e{u.time, Event::Kind::kDataUpdate, u.node, 0, 0, 0.0, {}};
    e.packet.a = u.delta;  // carry the delta in the payload slot
    push(std::move(e));
  }
  for (const auto& h : config_.faults.link_heals) {
    push({h.time, Event::Kind::kLinkHeal, h.a, h.b, 0, 0.0, {}});
  }
  for (const auto& r : config_.faults.node_rejoins) {
    push({r.time, Event::Kind::kRejoin, r.node, 0, 0, 0.0, {}});
  }
  for (const auto& d : config_.faults.false_detects) {
    push({d.time, Event::Kind::kFalseDetect, d.a, d.b, 0, d.clear_delay, {}});
  }
  // Churn: every link carries an independent Exp(churn_fail_prob) failure
  // clock. A fired clock that finds its link already dead ends the chain;
  // the heal (or rejoin) that revives the link starts a fresh one.
  if (config_.faults.churn_fail_prob > 0.0) {
    for (const auto& [a, b] : topology.edges()) {
      push({net_rng_.exponential(config_.faults.churn_fail_prob), Event::Kind::kChurnFail, a, b,
            0, 0.0, {}});
    }
  }

  if (config_.invariants.resolve_enabled()) {
    monitor_ = std::make_unique<InvariantMonitor>(config_.invariants);
    monitor_->install_default_checkers();
  }
}

void AsyncEngine::push(Event e) {
  e.seq = seq_++;
  queue_.push(std::move(e));
}

void AsyncEngine::schedule_tick(NodeId node) {
  const double dt = node_rngs_[node].exponential(config_.tick_rate);
  push({now_ + dt, Event::Kind::kTick, node, 0, 0, 0.0, {}});
}

void AsyncEngine::fail_link(NodeId a, NodeId b, bool independent) {
  if (!dead_links_.insert(a, b)) return;
  if (independent) cut_links_.insert(a, b);
  falsely_excluded_.erase(a, b);  // a real failure supersedes a false positive
  const double due = now_ + config_.faults.detection_delay;
  push({due, Event::Kind::kDetect, a, b, 0, 0.0, {}});
  push({due, Event::Kind::kDetect, b, a, 0, 0.0, {}});
  pending_detects_ += 2;
  // Churn heal: independent failures between live nodes come back after an
  // exponentially distributed outage. Crash-induced failures are owned by the
  // rejoin event instead.
  if (independent && config_.faults.churn_heal_rate > 0.0 && alive_[a] && alive_[b]) {
    push({now_ + net_rng_.exponential(config_.faults.churn_heal_rate), Event::Kind::kLinkHeal, a,
          b, 0, 0.0, {}});
  }
}

bool AsyncEngine::revive_link(NodeId a, NodeId b) {
  if (dead_links_.erase(a, b) == 0) return false;
  cut_links_.erase(a, b);
  ++link_heals_fired_;
  // Packets queued while the cable was cut were physically lost; remember the
  // heal epoch so kDelivery (and the in-flight mass snapshot) drop them.
  heal_seq_[norm_edge(a, b)] = seq_;
  const double due = now_ + config_.faults.detection_delay;
  push({due, Event::Kind::kDetectUp, a, b, 0, 0.0, {}});
  push({due, Event::Kind::kDetectUp, b, a, 0, 0.0, {}});
  pending_up_notices_ += 2;
  if (config_.faults.churn_fail_prob > 0.0) {
    push({now_ + net_rng_.exponential(config_.faults.churn_fail_prob), Event::Kind::kChurnFail, a,
          b, 0, 0.0, {}});
  }
  return true;
}

void AsyncEngine::retarget_now() {
  std::vector<core::Mass> current;
  for (NodeId i = 0; i < fleet_->size(); ++i) {
    if (alive_[i]) current.push_back(fleet_->local_mass(i));
  }
  append_in_flight_mass(current);
  oracle_.retarget(current);
}

bool AsyncEngine::stale_delivery(const Event& e) const {
  const auto it = heal_seq_.find(norm_edge(e.a, e.b));
  return it != heal_seq_.end() && e.seq < it->second;
}

void AsyncEngine::handle(const Event& e) {
  switch (e.kind) {
    case Event::Kind::kTick: {
      const NodeId i = e.a;
      if (!alive_[i]) return;
      schedule_tick(i);
      if (config_.faults.state_flip_prob > 0.0 &&
          net_rng_.chance(config_.faults.state_flip_prob)) {
        (void)fleet_->corrupt_stored_flow(i, net_rng_);  // memory soft error
      }
      auto out = fleet_->make_message(i, node_rngs_[i]);
      if (!out) return;
      if (dead_links_.contains(i, out->to) || !alive_[out->to]) return;
      const auto& plan = config_.faults;
      if (plan.message_loss_prob > 0.0 && net_rng_.chance(plan.message_loss_prob)) return;
      core::Packet packet = std::move(out->packet);
      if (plan.bit_flip_prob > 0.0 && net_rng_.chance(plan.bit_flip_prob)) {
        flip_random_bit(packet, net_rng_, plan.bit_flip_any_bit);
      }
      double arrival = now_ + net_rng_.uniform(config_.latency_min, config_.latency_max);
      const bool reordered = plan.reorder_prob > 0.0 && net_rng_.chance(plan.reorder_prob);
      if (reordered) {
        // Adversarial delivery: delay the packet past the FIFO clamp without
        // advancing it, so later sends on the link can legitimately overtake.
        arrival += net_rng_.uniform(0.0, plan.reorder_jitter);
      } else {
        // FIFO per directed link: never deliver before an earlier packet on
        // the same link (the tiny epsilon keeps arrivals strictly ordered).
        auto& last = last_arrival_[{i, out->to}];
        arrival = std::max(arrival, last + 1e-9);
        last = arrival;
      }
      ++perf_.messages_sent;
      perf_.doubles_on_wire += fleet_->wire_masses() * (packet.a.dim() + 1);
      if (plan.duplicate_prob > 0.0 && net_rng_.chance(plan.duplicate_prob)) {
        ++duplicates_injected_;
        Event dup{arrival + 1e-9, Event::Kind::kDelivery, i, out->to, 0, 0.0, packet};
        if (!reordered) last_arrival_[{i, out->to}] = dup.time;
        push(std::move(dup));
      }
      push({arrival, Event::Kind::kDelivery, i, out->to, 0, 0.0, std::move(packet)});
      return;
    }
    case Event::Kind::kDelivery: {
      // A packet already in flight when its link died is lost, matching a
      // physical cable cut rather than a graceful shutdown; one queued before
      // the link's last heal died with the outage (stale_delivery).
      if (dead_links_.contains(e.a, e.b) || !alive_[e.b]) return;
      if (stale_delivery(e)) return;
      fleet_->receive(e.b, e.a, e.packet);
      ++delivered_;
      ++perf_.deliveries;
      return;
    }
    case Event::Kind::kLinkFailure:
      ++link_failures_fired_;
      fail_link(e.a, e.b, /*independent=*/true);
      return;
    case Event::Kind::kChurnFail: {
      // A dead link (or endpoint) ends this chain; revive_link starts a new one.
      if (!alive_[e.a] || !alive_[e.b] || dead_links_.contains(e.a, e.b)) return;
      ++link_failures_fired_;
      fail_link(e.a, e.b, /*independent=*/true);
      return;
    }
    case Event::Kind::kCrash: {
      if (!alive_[e.a]) return;
      alive_[e.a] = false;
      ++crashes_fired_;
      for (const NodeId peer : topology_.neighbors(e.a)) {
        fail_link(e.a, peer, /*independent=*/false);
      }
      pending_retarget_ = true;
      return;
    }
    case Event::Kind::kRejoin: {
      const NodeId i = e.a;
      if (alive_[i]) return;
      alive_[i] = true;
      ++rejoins_fired_;
      // Fresh state: the node restarts from its initial input, as a machine
      // rebooted from its local data would (its arena rows reset in place).
      fleet_->reset_node(i, initial_[i]);
      for (const NodeId peer : topology_.neighbors(i)) {
        if (!alive_[peer] || cut_links_.contains(i, peer)) {
          // The peer is down, or the cable failed independently of the crash
          // and is still cut — exclude it immediately.
          fleet_->on_link_down(i, peer);
          continue;
        }
        (void)revive_link(i, peer);
      }
      schedule_tick(i);  // the crash orphaned the node's tick chain — restart it
      // The returning mass re-enters the computation: retarget immediately
      // (stale in-flight packets on the revived links are excluded by the
      // heal-epoch filter inside append_in_flight_mass).
      retarget_now();
      return;
    }
    case Event::Kind::kLinkHeal: {
      if (!alive_[e.a] || !alive_[e.b]) return;  // rejoin owns crashed ends
      (void)revive_link(e.a, e.b);
      return;
    }
    case Event::Kind::kDetectUp: {
      --pending_up_notices_;
      // Report "up" only if the link did not die again during the delay.
      if (alive_[e.a] && !dead_links_.contains(e.a, e.b)) {
        fleet_->on_link_up(e.a, e.b);
      }
      return;
    }
    case Event::Kind::kFalseDetect: {
      // Only a live link between live nodes can be *falsely* suspected.
      if (!alive_[e.a] || !alive_[e.b] || dead_links_.contains(e.a, e.b)) return;
      if (!falsely_excluded_.insert(e.a, e.b)) return;
      ++false_detects_fired_;
      // Both detectors report the link down; transport stays up, so packets
      // already in flight still arrive (and are dropped by the reducers).
      fleet_->on_link_down(e.a, e.b);
      fleet_->on_link_down(e.b, e.a);
      push({now_ + e.aux, Event::Kind::kFalseClear, e.a, e.b, 0, 0.0, {}});
      return;
    }
    case Event::Kind::kFalseClear: {
      if (falsely_excluded_.erase(e.a, e.b) == 0) return;  // superseded by a real failure
      if (alive_[e.a] && alive_[e.b] && !dead_links_.contains(e.a, e.b)) {
        ++false_clears_fired_;
        fleet_->on_link_up(e.a, e.b);
        fleet_->on_link_up(e.b, e.a);
      }
      return;
    }
    case Event::Kind::kDataUpdate: {
      if (!alive_[e.a]) return;
      fleet_->update_data(e.a, e.packet.a);
      // A live update changes the conserved mass by exactly delta — no
      // snapshot needed, so this is exact even with packets in flight.
      oracle_.shift(e.packet.a);
      ++data_updates_fired_;
      return;
    }
    case Event::Kind::kDetect: {
      --pending_detects_;
      // Skip the report if the link healed (or the node rejoined and revived
      // it) while the detector was still counting down.
      if (alive_[e.a] && dead_links_.contains(e.a, e.b)) {
        fleet_->on_link_down(e.a, e.b);
      }
      if (pending_retarget_) {
        // Survivors' local masses alone miss whatever is still on the wire
        // between live nodes; retarget_now() folds the queued deliveries in so
        // the target is the mass the system will actually conserve once they
        // land. Retarget on every detect while a crash settles; the final
        // detect leaves the correct conserved target and ends the window.
        retarget_now();
        if (pending_detects_ == 0) pending_retarget_ = false;
      }
      return;
    }
  }
}

void AsyncEngine::append_in_flight_mass(std::vector<core::Mass>& masses) const {
  // Deliveries to dead nodes or over dead links will be dropped on arrival —
  // their mass is genuinely lost and must NOT be counted. For additive
  // payloads (push-sum) every queued packet contributes its share. For the
  // flow algorithms deliveries are absolute mirrors and per-directed-link
  // FIFO makes them last-writer-wins: only the newest queued packet per link
  // determines the receiver's eventual flow state, so only it carries mass.
  std::map<std::pair<NodeId, NodeId>, const Event*> newest;
  for (const Event& e : queue_.items()) {
    if (e.kind != Event::Kind::kDelivery) continue;
    if (dead_links_.contains(e.a, e.b) || !alive_[e.b]) continue;
    if (stale_delivery(e)) continue;  // lost in a pre-heal outage
    if (fleet_->in_flight_mass_accumulates()) {
      core::Mass m = fleet_->unreceived_mass(e.b, e.a, e.packet);
      if (!m.is_zero()) masses.push_back(std::move(m));
    } else {
      const Event*& slot = newest[{e.a, e.b}];
      if (slot == nullptr || e.seq > slot->seq) slot = &e;
    }
  }
  for (const auto& [link, event] : newest) {
    core::Mass m = fleet_->unreceived_mass(event->b, event->a, event->packet);
    if (!m.is_zero()) masses.push_back(std::move(m));
  }
}

void AsyncEngine::run_until(double time) {
  {
    const auto timer = perf_.time(PerfCounters::Phase::kEvents);
    while (!queue_.empty() && queue_.top().time <= time) {
      Event e = queue_.top();
      queue_.pop();
      now_ = e.time;
      handle(e);
      ++perf_.events_processed;
    }
  }
  perf_.queue_reallocations = queue_.reallocations();
  now_ = std::max(now_, time);
  check_invariants_now();
}

bool AsyncEngine::run_until_error(double tol, double deadline, double check_interval) {
  PCF_CHECK_MSG(check_interval > 0.0, "check interval must be positive");
  while (now_ < deadline) {
    run_until(std::min(now_ + check_interval, deadline));
    if (max_error() <= tol) return true;
  }
  return max_error() <= tol;
}

std::vector<double> AsyncEngine::estimates(std::size_t k) const {
  std::vector<double> out;
  for (NodeId i = 0; i < fleet_->size(); ++i) {
    if (alive_[i]) out.push_back(fleet_->estimate(i, k));
  }
  return out;
}

double AsyncEngine::max_error(std::size_t k) const {
  double worst = 0.0;
  for (NodeId i = 0; i < fleet_->size(); ++i) {
    if (alive_[i]) worst = std::max(worst, oracle_.error_of(fleet_->estimate(i, k), k));
  }
  return worst;
}

}  // namespace pcf::sim
