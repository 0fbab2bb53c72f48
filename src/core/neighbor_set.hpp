// Per-node neighbor bookkeeping for node-object protocols (the extrema
// gossip): sorted id -> slot lookup, liveness flags, and uniform sampling
// among live neighbors.
//
// The live set is stored as *slot indices* (ascending). Because ids_ is
// sorted, ascending slots and ascending ids induce the same order, so the
// uniform draw in pick_live()/pick_live_slot() selects the same neighbor for
// the same RNG state as the historical id-keyed implementation — golden
// traces do not move. Storing slots lets the hot send path go straight from
// the sample to per-slot flow storage without re-running the O(log degree)
// id lookup that slot_of() does (the "latent map lookup" this layout fixes).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/topology.hpp"
#include "support/binio.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace pcf::core {

class NeighborSet {
 public:
  void init(std::span<const net::NodeId> neighbors) {
    ids_.assign(neighbors.begin(), neighbors.end());
    std::sort(ids_.begin(), ids_.end());
    PCF_CHECK_MSG(std::adjacent_find(ids_.begin(), ids_.end()) == ids_.end(),
                  "duplicate neighbor id");
    alive_.assign(ids_.size(), 1);
    live_slots_.resize(ids_.size());
    for (std::uint32_t s = 0; s < live_slots_.size(); ++s) live_slots_[s] = s;
  }

  [[nodiscard]] std::size_t size() const noexcept { return ids_.size(); }
  [[nodiscard]] std::size_t live_count() const noexcept { return live_slots_.size(); }
  [[nodiscard]] net::NodeId id_at(std::size_t slot) const noexcept { return ids_[slot]; }
  [[nodiscard]] bool alive_at(std::size_t slot) const noexcept { return alive_[slot] != 0; }

  /// Slot index of neighbor `j`, or nullopt if j is not a neighbor.
  [[nodiscard]] std::optional<std::size_t> slot_of(net::NodeId j) const noexcept {
    const auto it = std::lower_bound(ids_.begin(), ids_.end(), j);
    if (it == ids_.end() || *it != j) return std::nullopt;
    return static_cast<std::size_t>(it - ids_.begin());
  }

  /// Uniformly random live neighbor's slot, or nullopt if none are left.
  /// Draws exactly one rng.below(live_count()) when the live set is
  /// non-empty, nothing otherwise — the same RNG-stream contract as the
  /// arena's live-neighbor draw.
  [[nodiscard]] std::optional<std::size_t> pick_live_slot(Rng& rng) const noexcept {
    if (live_slots_.empty()) return std::nullopt;
    return static_cast<std::size_t>(
        live_slots_[static_cast<std::size_t>(rng.below(live_slots_.size()))]);
  }

  /// Uniformly random live neighbor, or nullopt if none are left.
  [[nodiscard]] std::optional<net::NodeId> pick_live(Rng& rng) const noexcept {
    const auto slot = pick_live_slot(rng);
    if (!slot) return std::nullopt;
    return ids_[*slot];
  }

  /// Marks neighbor j dead; returns its slot if it was alive, nullopt if it
  /// was unknown or already dead (duplicate failure notifications are benign).
  std::optional<std::size_t> mark_dead(net::NodeId j) {
    const auto slot = slot_of(j);
    if (!slot || alive_[*slot] == 0) return std::nullopt;
    alive_[*slot] = 0;
    const auto s = static_cast<std::uint32_t>(*slot);
    live_slots_.erase(
        std::lower_bound(live_slots_.begin(), live_slots_.end(), s));
    return slot;
  }

  /// Marks neighbor j alive again (link heal / rejoin); returns its slot if
  /// it was dead, nullopt if it was unknown or already alive (duplicate
  /// recovery notifications are benign). live_slots_ stays sorted, so
  /// pick_live sampling is deterministic regardless of the heal order.
  std::optional<std::size_t> mark_alive(net::NodeId j) {
    const auto slot = slot_of(j);
    if (!slot || alive_[*slot] != 0) return std::nullopt;
    alive_[*slot] = 1;
    const auto s = static_cast<std::uint32_t>(*slot);
    live_slots_.insert(
        std::lower_bound(live_slots_.begin(), live_slots_.end(), s), s);
    return slot;
  }

  /// Checkpointing: only the liveness flags are mutable state — ids_ comes
  /// from the topology (re-supplied at restore via init), and live_slots_ is
  /// derived from the flags, so neither is serialized.
  void save_state(BinaryWriter& w) const {
    w.u64(ids_.size());
    for (const std::uint8_t a : alive_) w.u8(a);
  }

  /// Restores flags saved by save_state into an init()-ed set with the same
  /// neighborhood; rebuilds live_slots_. Throws BinioError on a neighbor
  /// count that does not match this set (wrong-topology checkpoint).
  void load_state(BinaryReader& r) {
    const std::uint64_t n = r.u64();
    if (n != ids_.size()) throw BinioError("neighbor count mismatch in checkpoint");
    live_slots_.clear();
    for (std::uint32_t s = 0; s < ids_.size(); ++s) {
      alive_[s] = r.u8() ? 1 : 0;
      if (alive_[s]) live_slots_.push_back(s);
    }
  }

 private:
  std::vector<net::NodeId> ids_;            // sorted
  std::vector<std::uint8_t> alive_;         // per-slot, branch-friendly
  std::vector<std::uint32_t> live_slots_;   // sorted ascending
};

}  // namespace pcf::core
