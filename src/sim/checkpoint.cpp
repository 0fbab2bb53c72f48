// Engine checkpoint/restore implementation (format: DESIGN.md §8).
//
// This TU implements member functions of both engines, so the serialization
// code reads private state directly instead of widening the engines' public
// surface. Layout discipline: the save and load functions for each section
// are adjacent and field-for-field parallel — when you touch one, touch both
// and bump kCheckpointVersion.

#include "sim/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <bit>
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

/// FNV-1a over a stream of 64-bit words (fed byte-wise, little-endian).
struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  void add_bits(double v) { add(std::bit_cast<std::uint64_t>(v)); }
};

void hash_mass(Fnv& h, const core::Mass& m) {
  h.add(m.dim());
  for (const double v : m.s) h.add_bits(v);
  h.add_bits(m.w);
}

/// The scheduled (immutable) half of the fault plan. Both engines sort the
/// event lists by time at construction, so identically-constructed engines
/// hash identically regardless of the order the plan was written in.
void hash_fault_schedule(Fnv& h, const FaultPlan& p) {
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

void hash_construction_inputs(Fnv& h, const net::Topology& topology,
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

struct Header {
  std::uint8_t engine_kind = 0;
  CheckpointMode mode = CheckpointMode::kFull;
  std::uint8_t algorithm = 0;
  std::uint8_t engine_mode = 0;
  std::uint64_t seed = 0;
  std::uint64_t nodes = 0;
  std::uint64_t dim = 0;
  std::uint64_t compat_hash = 0;
  double position = 0.0;
};

void write_header(BinaryWriter& w, const Header& h) {
  w.raw(kCheckpointMagic.data(), kCheckpointMagic.size());
  w.u32(kCheckpointVersion);
  w.u8(h.engine_kind);
  w.u8(static_cast<std::uint8_t>(h.mode));
  w.u8(h.algorithm);
  w.u8(h.engine_mode);
  w.u64(h.seed);
  w.u64(h.nodes);
  w.u64(h.dim);
  w.u64(h.compat_hash);
  w.f64(h.position);
}

/// Refuses a blob whose per-node rows are not in the arena layout.
void check_layout(const Header& h) {
  if (h.engine_mode != kArenaLayout) {
    throw CheckpointError("checkpoint state layout " + std::to_string(h.engine_mode) +
                          " is not the arena layout (" + std::to_string(kArenaLayout) +
                          "); the per-object layout was retired");
  }
}

/// Parses + validates the header; leaves `r` positioned at the body.
Header read_header(BinaryReader& r) {
  try {
    if (r.raw(kCheckpointMagic.size()) != kCheckpointMagic) {
      throw CheckpointError("not a pcflow checkpoint (bad magic)");
    }
    const std::uint32_t version = r.u32();
    if (version != kCheckpointVersion) {
      throw CheckpointError("unsupported checkpoint version " + std::to_string(version) +
                            " (this build reads version " +
                            std::to_string(kCheckpointVersion) + ")");
    }
    Header h;
    h.engine_kind = r.u8();
    if (h.engine_kind != kKindSync && h.engine_kind != kKindAsync) {
      throw CheckpointError("corrupt checkpoint: unknown engine kind");
    }
    const std::uint8_t mode = r.u8();
    if (mode > static_cast<std::uint8_t>(CheckpointMode::kFull)) {
      throw CheckpointError("corrupt checkpoint: unknown checkpoint mode");
    }
    h.mode = static_cast<CheckpointMode>(mode);
    h.algorithm = r.u8();
    h.engine_mode = r.u8();
    h.seed = r.u64();
    h.nodes = r.u64();
    h.dim = r.u64();
    h.compat_hash = r.u64();
    h.position = r.f64();
    return h;
  } catch (const BinioError& e) {
    throw CheckpointError(std::string("truncated checkpoint header: ") + e.what());
  }
}

// ---- shared sections --------------------------------------------------

/// The probabilistic fault knobs are mutable mid-run (mutable_faults() — the
/// chaos harness zeroes them to enter its recovery phase), so they are
/// checkpointed state; the scheduled event lists are construction inputs
/// covered by the compat hash instead.
void save_fault_knobs(BinaryWriter& w, const FaultPlan& p) {
  w.f64(p.message_loss_prob);
  w.f64(p.bit_flip_prob);
  w.boolean(p.bit_flip_any_bit);
  w.f64(p.state_flip_prob);
  w.f64(p.detection_delay);
  w.f64(p.duplicate_prob);
  w.f64(p.reorder_prob);
  w.f64(p.reorder_jitter);
  w.f64(p.churn_fail_prob);
  w.f64(p.churn_heal_rate);
}

void load_fault_knobs(BinaryReader& r, FaultPlan& p) {
  p.message_loss_prob = r.f64();
  p.bit_flip_prob = r.f64();
  p.bit_flip_any_bit = r.boolean();
  p.state_flip_prob = r.f64();
  p.detection_delay = r.f64();
  p.duplicate_prob = r.f64();
  p.reorder_prob = r.f64();
  p.reorder_jitter = r.f64();
  p.churn_fail_prob = r.f64();
  p.churn_heal_rate = r.f64();
}

void save_rng(BinaryWriter& w, const Rng& rng) {
  for (const std::uint64_t word : rng.state()) w.u64(word);
}

void load_rng(BinaryReader& r, Rng& rng) {
  std::array<std::uint64_t, 4> state{};
  for (auto& word : state) word = r.u64();
  if (state[0] == 0 && state[1] == 0 && state[2] == 0 && state[3] == 0) {
    throw BinioError("rng checkpoint: all-zero state");
  }
  rng.set_state(state);
}

void save_alive(BinaryWriter& w, const std::vector<bool>& alive) {
  for (const bool a : alive) w.boolean(a);
}

void load_alive(BinaryReader& r, std::vector<bool>& alive) {
  for (std::size_t i = 0; i < alive.size(); ++i) alive[i] = r.boolean();
}

void save_link_set(BinaryWriter& w, const net::LinkSet& links) {
  w.u64(links.size());
  for (const auto [a, b] : links) {  // (min, max) pairs, ascending (D2-safe)
    w.u32(a);
    w.u32(b);
  }
}

/// Accepts exactly what save_link_set writes: topology edges as (min, max)
/// pairs in strictly ascending order. Anything else is a corrupt blob.
void load_link_set(BinaryReader& r, net::LinkSet& links, const net::Topology& topology) {
  links.clear();
  const std::size_t count = r.count(8);
  std::pair<NodeId, NodeId> previous{0, 0};
  for (std::size_t i = 0; i < count; ++i) {
    const NodeId a = r.u32();
    const NodeId b = r.u32();
    const std::pair link{a, b};
    if (a >= topology.size() || b >= topology.size()) {
      throw BinioError("link set checkpoint: node id out of range");
    }
    if (a >= b) throw BinioError("link set checkpoint: link not normalized as (min, max)");
    if (!topology.has_edge(a, b)) throw BinioError("link set checkpoint: not a topology edge");
    if (i > 0 && !(previous < link)) {
      throw BinioError("link set checkpoint: links not strictly ascending");
    }
    links.insert(a, b);
    previous = link;
  }
}

/// Deterministic subset of the perf counters — the wall-clock phase timers
/// are intentionally NOT checkpointed (they are measurements of this
/// process, not simulation state).
void save_perf(BinaryWriter& w, const PerfCounters& perf) {
  w.u64(perf.events_processed);
  w.u64(perf.rounds);
  w.u64(perf.messages_sent);
  w.u64(perf.deliveries);
  w.u64(perf.doubles_on_wire);
}

void load_perf(BinaryReader& r, PerfCounters& perf) {
  perf.events_processed = r.u64();
  perf.rounds = r.u64();
  perf.messages_sent = r.u64();
  perf.deliveries = r.u64();
  perf.doubles_on_wire = r.u64();
}

/// Shared state-fingerprint over the per-node protocol state, probed through
/// the fleet's public by-id surface (bit patterns, not values — two states
/// agree iff every double agrees bitwise).
void fingerprint_nodes(Fnv& h, const net::Topology& topology, const core::ArenaFleet& fleet,
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
  const Header h = read_header(r);
  CheckpointInfo info;
  info.version = kCheckpointVersion;
  info.engine_kind = h.engine_kind;
  info.mode = h.mode;
  info.algorithm = h.algorithm;
  info.engine_mode = h.engine_mode;
  info.seed = h.seed;
  info.nodes = h.nodes;
  info.dim = h.dim;
  info.compat_hash = h.compat_hash;
  info.position = h.position;
  return info;
}

// ===========================================================================
// SyncEngine
// ===========================================================================

namespace {

std::uint64_t sync_compat_hash(const net::Topology& topology,
                               std::span<const core::Mass> initial,
                               const SyncEngineConfig& config) {
  Fnv h;
  h.add(kKindSync);
  h.add(static_cast<std::uint64_t>(config.algorithm));
  h.add(static_cast<std::uint64_t>(config.delivery));
  h.add(static_cast<std::uint64_t>(config.mode));  // always kArena; keeps arena blobs valid
  h.add(config.seed);
  hash_construction_inputs(h, topology, initial, config.reducer);
  hash_fault_schedule(h, config.faults);
  return h.h;
}

}  // namespace

std::string SyncEngine::save_checkpoint(CheckpointMode mode) const {
  BinaryWriter w;
  Header h;
  h.engine_kind = kKindSync;
  h.mode = mode;  // recorded for symmetry; the sync body is mode-independent
  h.algorithm = static_cast<std::uint8_t>(config_.algorithm);
  h.engine_mode = kArenaLayout;
  h.seed = config_.seed;
  h.nodes = fleet_->size();
  h.dim = oracle_.dim();
  h.compat_hash = sync_compat_hash(topology_, initial_, config_);
  h.position = static_cast<double>(round_);
  write_header(w, h);

  save_fault_knobs(w, config_.faults);
  w.u64(round_);
  w.u64(next_link_failure_);
  w.u64(next_node_crash_);
  w.u64(next_data_update_);
  w.u64(next_link_heal_);
  w.u64(next_node_rejoin_);
  w.u64(next_false_detect_);
  w.boolean(pending_retarget_);
  w.boolean(wire_reordered_);
  w.boolean(retarget_after_wire_);
  w.u64(stats_.rounds);
  w.u64(stats_.messages_sent);
  w.u64(stats_.messages_dropped);
  w.u64(stats_.messages_flipped);
  w.u64(stats_.messages_duplicated);
  w.u64(stats_.doubles_sent);
  w.u64(stats_.state_flips);
  w.boolean(stats_.reached_target);
  w.u64(explicit_link_failures_);
  w.u64(crashes_fired_);
  w.u64(explicit_data_updates_);
  w.u64(churn_failures_fired_);
  w.u64(link_heals_fired_);
  w.u64(rejoins_fired_);
  w.u64(false_detects_fired_);
  w.u64(false_clears_fired_);
  for (const std::uint64_t c : rejoin_counts_) w.u64(c);
  save_rng(w, fault_rng_);
  for (const Rng& rng : node_rngs_) save_rng(w, rng);
  save_alive(w, alive_);
  save_link_set(w, dead_links_);
  save_link_set(w, cut_links_);
  save_link_set(w, falsely_excluded_);
  w.u64(pending_notices_.size());
  for (const PendingNotice& n : pending_notices_) {
    w.f64(n.due_time);
    w.u32(n.node);
    w.u32(n.peer);
    w.boolean(n.up);
  }
  w.u64(churn_heals_.size());
  for (const LinkHealEvent& e : churn_heals_) {
    w.f64(e.time);
    w.u32(e.a);
    w.u32(e.b);
  }
  w.u64(pending_clears_.size());
  for (const FalseDetectEvent& e : pending_clears_) {
    w.f64(e.time);
    w.u32(e.a);
    w.u32(e.b);
    w.f64(e.clear_delay);
  }
  oracle_.save(w);
  // Per-node reducer state — dead nodes included: their frozen state is
  // deterministic, and saving unconditionally keeps the layout positional.
  for (NodeId i = 0; i < fleet_->size(); ++i) fleet_->save_node(i, w);
  save_perf(w, perf_);
  return std::move(w).take();
}

void SyncEngine::restore(std::string_view checkpoint) {
  BinaryReader r(checkpoint);
  const Header h = read_header(r);
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
    load_fault_knobs(r, config_.faults);
    round_ = r.u64();
    next_link_failure_ = r.u64();
    next_node_crash_ = r.u64();
    next_data_update_ = r.u64();
    next_link_heal_ = r.u64();
    next_node_rejoin_ = r.u64();
    next_false_detect_ = r.u64();
    pending_retarget_ = r.boolean();
    wire_reordered_ = r.boolean();
    retarget_after_wire_ = r.boolean();
    stats_.rounds = r.u64();
    stats_.messages_sent = r.u64();
    stats_.messages_dropped = r.u64();
    stats_.messages_flipped = r.u64();
    stats_.messages_duplicated = r.u64();
    stats_.doubles_sent = r.u64();
    stats_.state_flips = r.u64();
    stats_.reached_target = r.boolean();
    explicit_link_failures_ = r.u64();
    crashes_fired_ = r.u64();
    explicit_data_updates_ = r.u64();
    churn_failures_fired_ = r.u64();
    link_heals_fired_ = r.u64();
    rejoins_fired_ = r.u64();
    false_detects_fired_ = r.u64();
    false_clears_fired_ = r.u64();
    for (std::uint64_t& c : rejoin_counts_) c = r.u64();
    load_rng(r, fault_rng_);
    for (Rng& rng : node_rngs_) load_rng(r, rng);
    load_alive(r, alive_);
    load_link_set(r, dead_links_, topology_);
    load_link_set(r, cut_links_, topology_);
    load_link_set(r, falsely_excluded_, topology_);
    pending_notices_.clear();
    const std::size_t notices = r.count(10);
    for (std::size_t i = 0; i < notices; ++i) {
      PendingNotice n{};
      n.due_time = r.f64();
      n.node = r.u32();
      n.peer = r.u32();
      n.up = r.boolean();
      pending_notices_.push_back(n);
    }
    churn_heals_.clear();
    const std::size_t heals = r.count(16);
    for (std::size_t i = 0; i < heals; ++i) {
      LinkHealEvent e{};
      e.time = r.f64();
      e.a = r.u32();
      e.b = r.u32();
      churn_heals_.push_back(e);
    }
    pending_clears_.clear();
    const std::size_t clears = r.count(24);
    for (std::size_t i = 0; i < clears; ++i) {
      FalseDetectEvent e{};
      e.time = r.f64();
      e.a = r.u32();
      e.b = r.u32();
      e.clear_delay = r.f64();
      pending_clears_.push_back(e);
    }
    oracle_.load(r);
    for (NodeId i = 0; i < fleet_->size(); ++i) fleet_->load_node(i, r);
    load_perf(r, perf_);
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
  Fnv h;
  h.add(round_);
  fingerprint_nodes(h, topology_, *fleet_, alive_);
  return h.h;
}

// ===========================================================================
// AsyncEngine
// ===========================================================================

namespace {

std::uint64_t async_compat_hash(const net::Topology& topology,
                                std::span<const core::Mass> initial,
                                const AsyncEngineConfig& config) {
  Fnv h;
  h.add(kKindAsync);
  h.add(static_cast<std::uint64_t>(config.algorithm));
  h.add(config.seed);
  h.add_bits(config.tick_rate);
  h.add_bits(config.latency_min);
  h.add_bits(config.latency_max);
  hash_construction_inputs(h, topology, initial, config.reducer);
  hash_fault_schedule(h, config.faults);
  return h.h;
}

constexpr std::uint8_t kMaxEventKind = 11;  // Event::Kind::kChurnFail

/// Whether an event kind carries a meaningful packet payload (all other
/// kinds leave it default-constructed, so it is not serialized).
[[nodiscard]] bool event_has_packet(std::uint8_t kind) {
  return kind == 1 /* kDelivery */ || kind == 5 /* kDataUpdate */;
}

}  // namespace

std::string AsyncEngine::save_checkpoint(CheckpointMode mode) const {
  // The wire format stores Event::Kind as its integer value; pin the values
  // the format depends on so an enum reorder fails here, not in saved state.
  static_assert(static_cast<std::uint8_t>(Event::Kind::kDelivery) == 1);
  static_assert(static_cast<std::uint8_t>(Event::Kind::kDataUpdate) == 5);
  static_assert(static_cast<std::uint8_t>(Event::Kind::kChurnFail) == kMaxEventKind);
  BinaryWriter w;
  Header h;
  h.engine_kind = kKindAsync;
  h.mode = mode;
  h.algorithm = static_cast<std::uint8_t>(config_.algorithm);
  h.engine_mode = kArenaLayout;
  h.seed = config_.seed;
  h.nodes = fleet_->size();
  h.dim = oracle_.dim();
  h.compat_hash = async_compat_hash(topology_, initial_, config_);
  h.position = now_;
  write_header(w, h);

  save_fault_knobs(w, config_.faults);
  w.f64(now_);
  w.u64(seq_);
  w.u64(delivered_);
  w.boolean(pending_retarget_);
  w.u64(pending_detects_);
  w.u64(pending_up_notices_);
  w.u64(link_failures_fired_);
  w.u64(crashes_fired_);
  w.u64(data_updates_fired_);
  w.u64(link_heals_fired_);
  w.u64(rejoins_fired_);
  w.u64(false_detects_fired_);
  w.u64(false_clears_fired_);
  w.u64(duplicates_injected_);
  save_rng(w, net_rng_);
  for (const Rng& rng : node_rngs_) save_rng(w, rng);
  save_alive(w, alive_);
  save_link_set(w, dead_links_);
  save_link_set(w, cut_links_);
  save_link_set(w, falsely_excluded_);
  w.u64(heal_seq_.size());
  for (const auto& [link, seq] : heal_seq_) {  // std::map: sorted iteration
    w.u32(link.first);
    w.u32(link.second);
    w.u64(seq);
  }
  w.u64(last_arrival_.size());
  for (const auto& [link, time] : last_arrival_) {
    w.u32(link.first);
    w.u32(link.second);
    w.f64(time);
  }
  oracle_.save(w);
  for (NodeId i = 0; i < fleet_->size(); ++i) fleet_->save_node(i, w);
  save_perf(w, perf_);

  // The event heap. Full mode: every pending event in raw heap-vector order,
  // restored verbatim — pop order (and thus continuation) is bitwise-exact.
  // Lightweight mode: kDelivery events (the in-flight packets) are dropped,
  // FTPregel-style; the control events (ticks, scheduled faults, churn
  // chains, detector notices) survive, because replay cannot regenerate them.
  const auto pending = queue_.items();
  std::size_t saved = pending.size();
  if (mode == CheckpointMode::kLightweight) {
    saved = 0;
    for (const Event& e : pending) {
      if (e.kind != Event::Kind::kDelivery) ++saved;
    }
  }
  w.u64(saved);
  for (const Event& e : pending) {
    if (mode == CheckpointMode::kLightweight && e.kind == Event::Kind::kDelivery) continue;
    w.f64(e.time);
    const auto kind = static_cast<std::uint8_t>(e.kind);
    w.u8(kind);
    w.u32(e.a);
    w.u32(e.b);
    w.u64(e.seq);
    w.f64(e.aux);
    if (event_has_packet(kind)) core::write_packet(w, e.packet);
  }
  return std::move(w).take();
}

void AsyncEngine::restore(std::string_view checkpoint) {
  BinaryReader r(checkpoint);
  const Header h = read_header(r);
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
    load_fault_knobs(r, config_.faults);
    now_ = r.f64();
    seq_ = r.u64();
    delivered_ = r.u64();
    pending_retarget_ = r.boolean();
    pending_detects_ = r.u64();
    pending_up_notices_ = r.u64();
    link_failures_fired_ = r.u64();
    crashes_fired_ = r.u64();
    data_updates_fired_ = r.u64();
    link_heals_fired_ = r.u64();
    rejoins_fired_ = r.u64();
    false_detects_fired_ = r.u64();
    false_clears_fired_ = r.u64();
    duplicates_injected_ = r.u64();
    load_rng(r, net_rng_);
    for (Rng& rng : node_rngs_) load_rng(r, rng);
    load_alive(r, alive_);
    load_link_set(r, dead_links_, topology_);
    load_link_set(r, cut_links_, topology_);
    load_link_set(r, falsely_excluded_, topology_);
    heal_seq_.clear();
    const std::size_t heals = r.count(16);
    for (std::size_t i = 0; i < heals; ++i) {
      const NodeId a = r.u32();
      const NodeId b = r.u32();
      heal_seq_[{a, b}] = r.u64();
    }
    last_arrival_.clear();
    const std::size_t arrivals = r.count(16);
    for (std::size_t i = 0; i < arrivals; ++i) {
      const NodeId a = r.u32();
      const NodeId b = r.u32();
      last_arrival_[{a, b}] = r.f64();
    }
    oracle_.load(r);
    for (NodeId i = 0; i < fleet_->size(); ++i) fleet_->load_node(i, r);
    load_perf(r, perf_);

    std::vector<Event> events;
    const std::size_t count = r.count(30);
    events.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      Event e{};
      e.time = r.f64();
      const std::uint8_t kind = r.u8();
      if (kind > kMaxEventKind) throw BinioError("event checkpoint: kind out of range");
      e.kind = static_cast<Event::Kind>(kind);
      e.a = r.u32();
      e.b = r.u32();
      if (e.a >= fleet_->size() || e.b >= fleet_->size()) {
        throw BinioError("event checkpoint: node id out of range");
      }
      e.seq = r.u64();
      e.aux = r.f64();
      if (event_has_packet(kind)) e.packet = core::read_packet(r);
      events.push_back(std::move(e));
    }
    r.expect_end();
    // Full mode saved the raw heap layout — install verbatim. Lightweight
    // filtered out deliveries, so the heap property must be re-established.
    queue_.restore_items(std::move(events), h.mode == CheckpointMode::kFull);
  } catch (const BinioError& e) {
    throw CheckpointError(std::string("corrupt checkpoint body: ") + e.what());
  }
}

std::uint64_t AsyncEngine::state_fingerprint() const {
  Fnv h;
  h.add_bits(now_);
  fingerprint_nodes(h, topology_, *fleet_, alive_);
  return h.h;
}

}  // namespace pcf::sim
