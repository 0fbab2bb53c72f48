#include "sim/session.hpp"

#include "support/binio.hpp"
#include "support/check.hpp"

namespace pcf::sim {

namespace {

/// Session blob = this prelude (session bookkeeping) + the engine checkpoint
/// as a length-prefixed string. Versioned with kCheckpointVersion: the engine
/// blob inside carries the same version, so they bump together.
constexpr std::string_view kSessionMagic{"PCFSESS\0", 8};

/// The prelude's one field list. Save passes the session's members; restore
/// passes staging copies sized like them, so the session keeps its state
/// until the engine blob has restored.
template <class Io, class Queries, class Current, class Seen, class Blob>
void prelude_fields(Io& io, Queries& queries, Current& current, Seen& seen, Blob& engine_blob) {
  io.tag(kSessionMagic, "not a pcflow session checkpoint");
  std::uint32_t version = kCheckpointVersion;
  io.field(version);
  io.require(version == kCheckpointVersion, "unsupported session checkpoint version");
  io.field(queries);
  std::uint64_t nodes = current.size();
  std::uint64_t dim = current.front().size();
  io.field(nodes);
  io.field(dim);
  io.require(nodes == current.size() && dim == current.front().size(),
             "session checkpoint node count or dimension mismatch");
  for (auto& values : current) {
    for (auto& v : values) io.field(v);
  }
  for (auto& n : seen) io.field(n);
  io.field(engine_blob);
}

SyncEngineConfig engine_config(const SessionOptions& options) {
  SyncEngineConfig cfg;
  cfg.algorithm = options.algorithm;
  cfg.reducer = options.reducer;
  cfg.faults = options.faults;
  cfg.seed = options.seed;
  cfg.delivery = options.delivery;
  cfg.shards = options.shards;
  cfg.invariants = options.invariants;
  // Field-count pin (the FaultPlan pin's pattern): if SyncEngineConfig grows
  // a field this stops compiling, forcing a decision on whether the session
  // forwards it. The session once silently dropped shards — engines ran
  // single-shard regardless of what the caller asked for. `mode` is not
  // forwarded: it names the one state layout and exists for source
  // compatibility only.
  {
    [[maybe_unused]] const auto& [algorithm, reducer, faults, seed, delivery, mode_unused,
                                  shards, invariants] = cfg;
  }
  return cfg;
}

}  // namespace

ReductionSession::ReductionSession(net::Topology topology,
                                   std::span<const core::Values> initial,
                                   SessionOptions options)
    : options_(std::move(options)),
      base_(initial.begin(), initial.end()),
      current_(initial.begin(), initial.end()),
      engine_(std::move(topology), masses_from_vectors(initial, options_.aggregate),
              engine_config(options_)),
      seen_rejoins_(initial.size(), 0) {
  PCF_CHECK_MSG(!current_.empty(), "session needs inputs");
}

SessionQueryResult ReductionSession::run_to_target(std::size_t dropped, std::size_t reapplied) {
  const std::size_t before = engine_.round();
  const auto stats =
      engine_.run_until_error(options_.target_accuracy, options_.max_rounds_per_query);
  ++queries_;

  SessionQueryResult result;
  result.rounds = engine_.round() - before;
  result.reached_target = stats.reached_target;
  result.max_error = engine_.max_error();
  result.dropped_updates = dropped;
  result.reapplied_updates = reapplied;
  const std::size_t d = current_.front().size();
  result.estimates.assign(engine_.size(),
                          std::vector<double>(d, std::numeric_limits<double>::quiet_NaN()));
  for (net::NodeId i = 0; i < engine_.size(); ++i) {
    if (!engine_.node_alive(i)) continue;
    for (std::size_t k = 0; k < d; ++k) result.estimates[i][k] = engine_.fleet().estimate(i, k);
  }
  return result;
}

std::size_t ReductionSession::sync_rejoined_nodes() {
  std::size_t reapplied = 0;
  const std::size_t d = current_.front().size();
  for (net::NodeId i = 0; i < engine_.size(); ++i) {
    if (engine_.rejoin_count(i) == seen_rejoins_[i]) continue;
    // A node that crashed again after rejoining is skipped WITHOUT advancing
    // the watermark — the drift is re-applied after its next rejoin instead.
    if (!engine_.node_alive(i)) continue;
    seen_rejoins_[i] = engine_.rejoin_count(i);
    core::Mass delta = core::Mass::zero(d);
    bool changed = false;
    for (std::size_t k = 0; k < d; ++k) {
      delta.s[k] = current_[i][k] - base_[i][k];
      changed = changed || delta.s[k] != 0.0;
    }
    if (changed) {
      engine_.apply_data_update(i, delta);
      ++reapplied;
    }
  }
  return reapplied;
}

SessionQueryResult ReductionSession::query(std::span<const core::Values> values) {
  PCF_CHECK_MSG(values.size() == current_.size(), "one input vector per node required");
  // Rejoin sync first: it re-applies drift relative to base_, so it must see
  // the PREVIOUS current_ — the new deltas below then stack on top.
  const std::size_t reapplied = sync_rejoined_nodes();
  std::size_t dropped = 0;
  const std::size_t d = current_.front().size();
  for (net::NodeId i = 0; i < values.size(); ++i) {
    PCF_CHECK_MSG(values[i].size() == d, "session input dimension is fixed at construction");
    core::Mass delta = core::Mass::zero(d);
    bool changed = false;
    for (std::size_t k = 0; k < d; ++k) {
      delta.s[k] = values[i][k] - current_[i][k];
      changed = changed || delta.s[k] != 0.0;
    }
    if (!changed) continue;
    // Record the desired value even when the node is dead: the update is
    // buffered, not lost — sync_rejoined_nodes() re-applies the accumulated
    // drift when the node comes back. (current_[i] used to stay stale here,
    // so the NEXT query's delta silently shifted the session's target.)
    current_[i] = values[i];
    if (engine_.node_alive(i)) {
      engine_.apply_data_update(i, delta);
    } else {
      ++dropped;
    }
  }
  return run_to_target(dropped, reapplied);
}

SessionQueryResult ReductionSession::refresh() { return run_to_target(0, sync_rejoined_nodes()); }

void ReductionSession::fail_link(net::NodeId a, net::NodeId b) { engine_.fail_link_now(a, b); }

void ReductionSession::heal_link(net::NodeId a, net::NodeId b) { engine_.heal_link_now(a, b); }

std::string ReductionSession::save_checkpoint(CheckpointMode mode) const {
  BinaryWriter w;
  const std::string engine_blob = engine_.save_checkpoint(mode);
  prelude_fields(w, queries_, current_, seen_rejoins_, engine_blob);
  return std::move(w).take();
}

void ReductionSession::restore(std::string_view checkpoint) {
  std::size_t queries = 0;
  std::vector<core::Values> current(current_.size(), core::Values(current_.front().size()));
  std::vector<std::uint64_t> seen(current_.size());
  std::string_view engine_blob;
  try {
    BinaryReader r(checkpoint);
    prelude_fields(r, queries, current, seen, engine_blob);
    r.expect_end();
  } catch (const BinioError& e) {
    throw CheckpointError(std::string("corrupt session checkpoint: ") + e.what());
  }
  // Engine restore validates compatibility and throws before the session's
  // own state is touched.
  engine_.restore(engine_blob);
  queries_ = queries;
  current_ = std::move(current);
  seen_rejoins_ = std::move(seen);
}

}  // namespace pcf::sim
