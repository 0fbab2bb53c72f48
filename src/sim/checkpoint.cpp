// Engine checkpoint/restore implementation (format: DESIGN.md §8).
//
// This TU implements member functions of both engines, so the serialization
// code reads private state directly instead of widening the engines' public
// surface. Every section, the fixed header included, is ONE field list, a
// `template <class Io>` function that save runs with a BinaryWriter (on a
// const engine) and restore with a BinaryReader; the reader-only checks sit
// in the same list as io.require (support/binio.hpp). A changed list changes
// the blob: bump kCheckpointVersion.

#include "sim/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/state_io.hpp"
#include "net/link_set.hpp"
#include "sim/engine_async.hpp"
#include "sim/engine_sync.hpp"
#include "support/binio.hpp"

namespace pcf::sim {

namespace {

constexpr std::uint8_t kKindSync = 1;
constexpr std::uint8_t kKindAsync = 2;
/// The header's engine_mode byte: the state layout of the per-node rows. The
/// arena is the only layout; 0 was the retired per-object layout, whose rows
/// must never be parsed as arena rows.
constexpr auto kArenaLayout = static_cast<std::uint8_t>(EngineMode::kArena);

void hash_mass(Fnv1a& h, const core::Mass& m) {
  h.add(m.dim());
  for (const double v : m.s) h.add_bits(v);
  h.add_bits(m.w);
}

/// The scheduled (immutable) half of the fault plan. Both engines sort the
/// event lists by time at construction, so identically-constructed engines
/// hash identically regardless of the order the plan was written in.
void hash_fault_schedule(Fnv1a& h, const FaultPlan& p) {
  h.add(p.link_failures.size());
  for (const auto& e : p.link_failures) {
    h.add_bits(e.time);
    h.add(e.a);
    h.add(e.b);
  }
  h.add(p.node_crashes.size());
  for (const auto& e : p.node_crashes) {
    h.add_bits(e.time);
    h.add(e.node);
  }
  h.add(p.data_updates.size());
  for (const auto& e : p.data_updates) {
    h.add_bits(e.time);
    h.add(e.node);
    hash_mass(h, e.delta);
  }
  h.add(p.link_heals.size());
  for (const auto& e : p.link_heals) {
    h.add_bits(e.time);
    h.add(e.a);
    h.add(e.b);
  }
  h.add(p.node_rejoins.size());
  for (const auto& e : p.node_rejoins) {
    h.add_bits(e.time);
    h.add(e.node);
  }
  h.add(p.false_detects.size());
  for (const auto& e : p.false_detects) {
    h.add_bits(e.time);
    h.add(e.a);
    h.add(e.b);
    h.add_bits(e.clear_delay);
  }
}

void hash_construction_inputs(Fnv1a& h, const net::Topology& topology,
                              std::span<const core::Mass> initial,
                              const core::ReducerConfig& reducer) {
  h.add(static_cast<std::uint64_t>(reducer.aggregate));
  h.add(static_cast<std::uint64_t>(reducer.pcf_variant));
  h.add(reducer.pf_cached_flow_sum ? 1 : 0);
  // The resolved tree schedule is a pure function of (topology, tree_kind), so
  // hashing the kind pins it. Only non-default kinds contribute — keeping every
  // pre-roster pinned golden hash byte-identical.
  if (reducer.tree_kind != net::TreeKind::kAuto) {
    h.add(static_cast<std::uint64_t>(reducer.tree_kind));
  }
  h.add(topology.size());
  for (std::size_t i = 0; i < topology.size(); ++i) {
    const auto nbrs = topology.neighbors(static_cast<NodeId>(i));
    h.add(nbrs.size());
    for (const NodeId j : nbrs) h.add(j);
  }
  h.add(initial.size());
  for (const auto& m : initial) hash_mass(h, m);
}

// ---- header -----------------------------------------------------------

/// The fixed header's one field list: save_checkpoint runs it with a
/// BinaryWriter, restore and peek_checkpoint with a BinaryReader (see
/// read_header). The reader refuses a foreign magic, another version, an
/// unknown engine kind and an unknown mode.
template <class Io, class Info>
void header_fields(Io& io, Info& h) {
  io.tag(kCheckpointMagic, "not a pcflow checkpoint (bad magic)");
  io.field(h.version);
  if constexpr (Io::kReading) {
    if (h.version != kCheckpointVersion) {
      throw CheckpointError("unsupported checkpoint version " + std::to_string(h.version) +
                            " (this build reads version " +
                            std::to_string(kCheckpointVersion) + ")");
    }
  }
  io.field(h.engine_kind);
  io.require(h.engine_kind == kKindSync || h.engine_kind == kKindAsync,
             "corrupt checkpoint: unknown engine kind");
  auto mode = static_cast<std::uint8_t>(h.mode);
  io.field(mode);
  io.require(mode <= static_cast<std::uint8_t>(CheckpointMode::kFull),
             "corrupt checkpoint: unknown checkpoint mode");
  if constexpr (Io::kReading) h.mode = static_cast<CheckpointMode>(mode);
  io.field(h.algorithm);
  io.field(h.engine_mode);
  io.field(h.seed);
  io.field(h.nodes);
  io.field(h.dim);
  io.field(h.compat_hash);
  io.field(h.position);
}

/// Refuses a blob whose per-node rows are not in the arena layout.
void check_layout(const CheckpointInfo& h) {
  if (h.engine_mode != kArenaLayout) {
    throw CheckpointError("checkpoint state layout " + std::to_string(h.engine_mode) +
                          " is not the arena layout (" + std::to_string(kArenaLayout) +
                          "); the per-object layout was retired");
  }
}

/// Runs the header list on `r`; leaves `r` positioned at the body.
CheckpointInfo read_header(BinaryReader& r) {
  CheckpointInfo h;
  try {
    header_fields(r, h);
  } catch (const BinioError& e) {
    throw CheckpointError(std::string("corrupt checkpoint header: ") + e.what());
  }
  return h;
}

// ---- shared sections --------------------------------------------------

/// The probabilistic fault knobs are mutable mid-run (mutable_faults() — the
/// chaos harness zeroes them to enter its recovery phase), so they are
/// checkpointed state; the scheduled event lists are construction inputs
/// covered by the compat hash instead.
template <class Io, class Plan>
void fault_knob_fields(Io& io, Plan& p) {
  io.field(p.message_loss_prob);
  io.field(p.bit_flip_prob);
  io.field(p.bit_flip_any_bit);
  io.field(p.state_flip_prob);
  io.field(p.detection_delay);
  io.field(p.duplicate_prob);
  io.field(p.reorder_prob);
  io.field(p.reorder_jitter);
  io.field(p.churn_fail_prob);
  io.field(p.churn_heal_rate);
}

/// Topology edges as (min, max) pairs in strictly ascending order; the reader
/// refuses anything else as a corrupt blob.
template <class Io, class Links>
void link_set_fields(Io& io, Links& links, const net::Topology& topology) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  if constexpr (!Io::kReading) pairs.assign(links.begin(), links.end());  // ascending (D2-safe)
  io.sequence(pairs, 8, [&](auto& link) {
    io.field(link.first);
    io.field(link.second);
    io.require(link.first < link.second, "link set checkpoint: link not normalized as (min, max)");
    io.require(topology.has_edge(link.first, link.second),
               "link set checkpoint: not a topology edge");
  });
  if constexpr (Io::kReading) {
    io.require(std::adjacent_find(pairs.begin(), pairs.end(), std::greater_equal<>()) ==
                   pairs.end(),
               "link set checkpoint: links not strictly ascending");
    links.clear();
    for (const auto& [a, b] : pairs) links.insert(a, b);
  }
}

/// Deterministic subset of the perf counters — the wall-clock phase timers
/// are intentionally NOT checkpointed (they are measurements of this
/// process, not simulation state).
template <class Io, class Perf>
void perf_fields(Io& io, Perf& perf) {
  io.field(perf.events_processed);
  io.field(perf.rounds);
  io.field(perf.messages_sent);
  io.field(perf.deliveries);
  io.field(perf.doubles_on_wire);
}

/// Shared state-fingerprint over the per-node protocol state, probed through
/// the fleet's public by-id surface (bit patterns, not values — two states
/// agree iff every double agrees bitwise).
void fingerprint_nodes(Fnv1a& h, const net::Topology& topology, const core::ArenaFleet& fleet,
                       const std::vector<bool>& alive) {
  std::array<core::Mass, core::ArenaFleet::kMaxFlowSlots> slots;
  for (NodeId i = 0; i < fleet.size(); ++i) {
    h.add(alive[i] ? 1 : 0);
    if (!alive[i]) continue;  // dead state is unobservable; rejoin rebuilds it
    const core::Mass m = fleet.local_mass(i);
    for (const double v : m.s) h.add_bits(v);
    h.add_bits(m.w);
    for (std::size_t k = 0; k < m.dim(); ++k) h.add_bits(fleet.estimate(i, k));
    h.add(fleet.live_degree(i));
    h.add(fleet.role_swaps(i));
    for (const NodeId j : topology.neighbors(i)) {
      const std::size_t written = fleet.flows_toward(i, j, std::span<core::Mass>(slots));
      h.add(written);
      for (std::size_t s = 0; s < written; ++s) {
        for (const double v : slots[s].s) h.add_bits(v);
        h.add_bits(slots[s].w);
      }
    }
  }
}

}  // namespace

CheckpointInfo peek_checkpoint(std::string_view blob) {
  BinaryReader r(blob);
  return read_header(r);
}

// ===========================================================================
// SyncEngine
// ===========================================================================

namespace {

std::uint64_t sync_compat_hash(const net::Topology& topology,
                               std::span<const core::Mass> initial,
                               const SyncEngineConfig& config) {
  Fnv1a h;
  h.add(kKindSync);
  h.add(static_cast<std::uint64_t>(config.algorithm));
  h.add(static_cast<std::uint64_t>(config.delivery));
  h.add(static_cast<std::uint64_t>(config.mode));  // always kArena; keeps arena blobs valid
  h.add(config.seed);
  hash_construction_inputs(h, topology, initial, config.reducer);
  hash_fault_schedule(h, config.faults);
  return h.value();
}

}  // namespace

template <class Io, class Self>
void SyncEngine::checkpoint_fields(Io& io, Self& self) {
  const net::Topology& topology = self.topology_;
  fault_knob_fields(io, self.config_.faults);
  io.field(self.round_);
  io.field(self.next_link_failure_);
  io.field(self.next_node_crash_);
  io.field(self.next_data_update_);
  io.field(self.next_link_heal_);
  io.field(self.next_node_rejoin_);
  io.field(self.next_false_detect_);
  io.field(self.pending_retarget_);
  io.field(self.wire_reordered_);
  io.field(self.retarget_after_wire_);
  io.field(self.stats_.rounds);
  io.field(self.stats_.messages_sent);
  io.field(self.stats_.messages_dropped);
  io.field(self.stats_.messages_flipped);
  io.field(self.stats_.messages_duplicated);
  io.field(self.stats_.doubles_sent);
  io.field(self.stats_.state_flips);
  io.field(self.stats_.reached_target);
  io.field(self.explicit_link_failures_);
  io.field(self.crashes_fired_);
  io.field(self.explicit_data_updates_);
  io.field(self.churn_failures_fired_);
  io.field(self.link_heals_fired_);
  io.field(self.rejoins_fired_);
  io.field(self.false_detects_fired_);
  io.field(self.false_clears_fired_);
  for (auto& c : self.rejoin_counts_) io.field(c);
  rng_fields(io, self.fault_rng_);
  for (auto& rng : self.node_rngs_) rng_fields(io, rng);
  for (std::size_t i = 0; i < self.alive_.size(); ++i) io.field(self.alive_[i]);
  link_set_fields(io, self.dead_links_, topology);
  link_set_fields(io, self.cut_links_, topology);
  link_set_fields(io, self.falsely_excluded_, topology);
  io.sequence(self.pending_notices_, 10, [&](auto& n) {
    io.field(n.due_time);
    io.field(n.node);
    io.field(n.peer);
    io.field(n.up);
    io.require(topology.has_edge(n.node, n.peer), "notice checkpoint: not a topology link");
  });
  io.sequence(self.churn_heals_, 16, [&](auto& e) {
    io.field(e.time);
    io.field(e.a);
    io.field(e.b);
    io.require(topology.has_edge(e.a, e.b), "churn heal checkpoint: not a topology link");
  });
  io.sequence(self.pending_clears_, 24, [&](auto& e) {
    io.field(e.time);
    io.field(e.a);
    io.field(e.b);
    io.field(e.clear_delay);
    io.require(topology.has_edge(e.a, e.b), "false clear checkpoint: not a topology link");
  });
  self.oracle_.fields(io);
  // Per-node reducer state — dead nodes included: their frozen state is
  // deterministic, and saving unconditionally keeps the layout positional.
  for (NodeId i = 0; i < self.fleet_->size(); ++i) self.fleet_->node_fields(io, i);
  perf_fields(io, self.perf_);
}

std::string SyncEngine::save_checkpoint(CheckpointMode mode) const {
  BinaryWriter w;
  CheckpointInfo h;
  h.engine_kind = kKindSync;
  h.mode = mode;  // recorded for symmetry; the sync body is mode-independent
  h.algorithm = static_cast<std::uint8_t>(config_.algorithm);
  h.engine_mode = kArenaLayout;
  h.seed = config_.seed;
  h.nodes = fleet_->size();
  h.dim = oracle_.dim();
  h.compat_hash = sync_compat_hash(topology_, initial_, config_);
  h.position = static_cast<double>(round_);
  header_fields(w, h);
  checkpoint_fields(w, *this);
  return std::move(w).take();
}

void SyncEngine::restore(std::string_view checkpoint) {
  BinaryReader r(checkpoint);
  const CheckpointInfo h = read_header(r);
  if (h.engine_kind != kKindSync) {
    throw CheckpointError("checkpoint was saved by the async engine");
  }
  if (h.algorithm != static_cast<std::uint8_t>(config_.algorithm)) {
    throw CheckpointError("checkpoint algorithm does not match this engine");
  }
  check_layout(h);
  if (h.seed != config_.seed || h.nodes != fleet_->size() || h.dim != oracle_.dim() ||
      h.compat_hash != sync_compat_hash(topology_, initial_, config_)) {
    throw CheckpointError(
        "checkpoint is incompatible with this engine's construction inputs "
        "(seed/topology/initial masses/config mismatch)");
  }
  try {
    checkpoint_fields(r, *this);
    r.expect_end();
  } catch (const BinioError& e) {
    throw CheckpointError(std::string("corrupt checkpoint body: ") + e.what());
  }
  // The wire drains within every step(), but clear defensively so a restore
  // into a mid-lifetime engine cannot leak stale wire entries.
  std::fill(wire_present_.begin(), wire_present_.end(), std::uint8_t{0});
  wire_count_ = 0;
}

std::uint64_t SyncEngine::state_fingerprint() const {
  Fnv1a h;
  h.add(round_);
  fingerprint_nodes(h, topology_, *fleet_, alive_);
  return h.value();
}

// ===========================================================================
// AsyncEngine
// ===========================================================================

namespace {

std::uint64_t async_compat_hash(const net::Topology& topology,
                                std::span<const core::Mass> initial,
                                const AsyncEngineConfig& config) {
  Fnv1a h;
  h.add(kKindAsync);
  h.add(static_cast<std::uint64_t>(config.algorithm));
  h.add(config.seed);
  h.add_bits(config.tick_rate);
  h.add_bits(config.latency_min);
  h.add_bits(config.latency_max);
  hash_construction_inputs(h, topology, initial, config.reducer);
  hash_fault_schedule(h, config.faults);
  return h.value();
}

constexpr std::uint8_t kMaxEventKind = 11;  // Event::Kind::kChurnFail

}  // namespace

template <class Io, class Self>
void AsyncEngine::checkpoint_fields(Io& io, Self& self, CheckpointMode mode) {
  // The wire format stores Event::Kind as its integer value; pin the values
  // the format depends on so an enum reorder fails here, not in saved state.
  static_assert(static_cast<std::uint8_t>(Event::Kind::kDelivery) == 1);
  static_assert(static_cast<std::uint8_t>(Event::Kind::kDataUpdate) == 5);
  static_assert(static_cast<std::uint8_t>(Event::Kind::kChurnFail) == kMaxEventKind);
  const net::Topology& topology = self.topology_;
  fault_knob_fields(io, self.config_.faults);
  io.field(self.now_);
  io.field(self.seq_);
  io.field(self.delivered_);
  io.field(self.pending_retarget_);
  io.field(self.pending_detects_);
  io.field(self.pending_up_notices_);
  io.field(self.link_failures_fired_);
  io.field(self.crashes_fired_);
  io.field(self.data_updates_fired_);
  io.field(self.link_heals_fired_);
  io.field(self.rejoins_fired_);
  io.field(self.false_detects_fired_);
  io.field(self.false_clears_fired_);
  io.field(self.duplicates_injected_);
  rng_fields(io, self.net_rng_);
  for (auto& rng : self.node_rngs_) rng_fields(io, rng);
  for (std::size_t i = 0; i < self.alive_.size(); ++i) io.field(self.alive_[i]);
  link_set_fields(io, self.dead_links_, topology);
  link_set_fields(io, self.cut_links_, topology);
  link_set_fields(io, self.falsely_excluded_, topology);
  // std::map: sorted iteration. Heal epochs are keyed by the normalized
  // edge; FIFO clamps by the directed link.
  io.mapping(self.heal_seq_, 16, [&](auto& link, auto& seq) {
    io.field(link.first);
    io.field(link.second);
    io.field(seq);
    io.require(link.first < link.second && topology.has_edge(link.first, link.second),
               "heal epoch checkpoint: not a normalized topology link");
  });
  io.mapping(self.last_arrival_, 16, [&](auto& link, auto& time) {
    io.field(link.first);
    io.field(link.second);
    io.field(time);
    io.require(topology.has_edge(link.first, link.second),
               "arrival clamp checkpoint: not a topology link");
  });
  self.oracle_.fields(io);
  for (NodeId i = 0; i < self.fleet_->size(); ++i) self.fleet_->node_fields(io, i);
  perf_fields(io, self.perf_);

  // The event heap. Full mode: every pending event in raw heap-vector order,
  // restored verbatim — pop order (and thus continuation) is bitwise-exact.
  // Lightweight mode: kDelivery events (the in-flight packets) are dropped,
  // FTPregel-style; the control events (ticks, scheduled faults, churn
  // chains, detector notices) survive, because replay cannot regenerate them.
  const bool full = mode == CheckpointMode::kFull;
  std::vector<Event> events;
  if constexpr (!Io::kReading) {
    for (const Event& e : self.queue_.items()) {
      if (full || e.kind != Event::Kind::kDelivery) events.push_back(e);
    }
  }
  const std::size_t dim = self.oracle_.dim();
  io.sequence(events, 30, [&](auto& e) {
    io.field(e.time);
    auto kind = static_cast<std::uint8_t>(e.kind);
    io.field(kind);
    io.require(kind <= kMaxEventKind, "event checkpoint: kind out of range");
    if constexpr (Io::kReading) e.kind = static_cast<Event::Kind>(kind);
    io.field(e.a);
    io.field(e.b);
    io.field(e.seq);
    io.field(e.aux);
    // Only deliveries and data updates carry a packet; the other kinds leave
    // it default-constructed, so it is not serialized.
    const bool has_packet =
        e.kind == Event::Kind::kDelivery || e.kind == Event::Kind::kDataUpdate;
    if (has_packet) core::packet_fields(io, e.packet);
    // A sent packet always has the engine's dimension (a data update's delta
    // is a construction input, checked when it fires).
    io.require(e.kind != Event::Kind::kDelivery || e.packet.a.dim() == dim,
               "event checkpoint: delivery packet dimension");
    switch (e.kind) {
      case Event::Kind::kTick:
      case Event::Kind::kCrash:
      case Event::Kind::kRejoin:
      case Event::Kind::kDataUpdate:
        io.require(e.a < topology.size(), "event checkpoint: node id out of range");
        break;
      case Event::Kind::kDelivery:
      case Event::Kind::kLinkFailure:
      case Event::Kind::kDetect:
      case Event::Kind::kLinkHeal:
      case Event::Kind::kDetectUp:
      case Event::Kind::kFalseDetect:
      case Event::Kind::kFalseClear:
      case Event::Kind::kChurnFail:
        io.require(topology.has_edge(e.a, e.b), "event checkpoint: not a topology link");
        break;
    }
  });
  if constexpr (Io::kReading) {
    // Full mode saved the raw heap layout — install it verbatim once it is
    // one. Lightweight filtered out deliveries, so the heap property must be
    // re-established.
    io.require(!full || std::is_heap(events.begin(), events.end(), EventOrder{}),
               "event checkpoint: full-mode events are not a heap");
    self.queue_.restore_items(std::move(events), full);
  }
}

std::string AsyncEngine::save_checkpoint(CheckpointMode mode) const {
  BinaryWriter w;
  CheckpointInfo h;
  h.engine_kind = kKindAsync;
  h.mode = mode;
  h.algorithm = static_cast<std::uint8_t>(config_.algorithm);
  h.engine_mode = kArenaLayout;
  h.seed = config_.seed;
  h.nodes = fleet_->size();
  h.dim = oracle_.dim();
  h.compat_hash = async_compat_hash(topology_, initial_, config_);
  h.position = now_;
  header_fields(w, h);
  checkpoint_fields(w, *this, mode);
  return std::move(w).take();
}

void AsyncEngine::restore(std::string_view checkpoint) {
  BinaryReader r(checkpoint);
  const CheckpointInfo h = read_header(r);
  if (h.engine_kind != kKindAsync) {
    throw CheckpointError("checkpoint was saved by the sync engine");
  }
  if (h.algorithm != static_cast<std::uint8_t>(config_.algorithm)) {
    throw CheckpointError("checkpoint algorithm does not match this engine");
  }
  check_layout(h);
  if (h.seed != config_.seed || h.nodes != fleet_->size() || h.dim != oracle_.dim() ||
      h.compat_hash != async_compat_hash(topology_, initial_, config_)) {
    throw CheckpointError(
        "checkpoint is incompatible with this engine's construction inputs "
        "(seed/topology/initial masses/config mismatch)");
  }
  try {
    checkpoint_fields(r, *this, h.mode);
    r.expect_end();
  } catch (const BinioError& e) {
    throw CheckpointError(std::string("corrupt checkpoint body: ") + e.what());
  }
}

std::uint64_t AsyncEngine::state_fingerprint() const {
  Fnv1a h;
  h.add_bits(now_);
  fingerprint_nodes(h, topology_, *fleet_, alive_);
  return h.value();
}

}  // namespace pcf::sim
