#include "core/arena.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "support/binio.hpp"

namespace pcf::core {

namespace {
const Mass& packet_slot(const Packet& packet, std::uint8_t slot) {
  return slot == 0 ? packet.a : packet.b;
}
}  // namespace

ArenaFleet::ArenaFleet(Algorithm algorithm, const ReducerConfig& config,
                       const net::Topology& topology, std::span<const Mass> initial)
    : algorithm_(algorithm), config_(config) {
  const std::size_t n = topology.size();
  PCF_CHECK_MSG(n > 0, "arena needs a non-empty topology");
  PCF_CHECK_MSG(initial.size() == n, "one initial mass per node required");
  dim_ = initial[0].dim();
  stride_ = dim_ + 1;
  for (const Mass& m : initial) {
    PCF_CHECK_MSG(m.dim() == dim_, "initial masses must share one dimension");
  }

  // CSR adjacency. Topology stores sorted neighbor lists already; the checks
  // below are the arena's construction contract (simple symmetric graph) that
  // the round-trip property test pins.
  offsets_.assign(n + 1, 0);
  for (NodeId i = 0; i < n; ++i) {
    const auto nbrs = topology.neighbors(i);
    PCF_CHECK_MSG(!nbrs.empty(), "node " << i << " needs at least one neighbor");
    offsets_[i + 1] = offsets_[i] + nbrs.size();
  }
  const std::size_t edges = offsets_[n];
  nbr_.resize(edges);
  for (NodeId i = 0; i < n; ++i) {
    const auto nbrs = topology.neighbors(i);
    std::copy(nbrs.begin(), nbrs.end(), nbr_.begin() + static_cast<std::ptrdiff_t>(offsets_[i]));
    for (std::size_t s = 0; s < nbrs.size(); ++s) {
      PCF_CHECK_MSG(nbrs[s] != i, "self-edge at node " << i);
      PCF_CHECK_MSG(s == 0 || nbrs[s - 1] < nbrs[s],
                    "neighbor list of node " << i << " not sorted/unique");
    }
  }
  reverse_slot_.resize(edges);
  for (NodeId i = 0; i < n; ++i) {
    for (std::size_t e = offsets_[i]; e < offsets_[i + 1]; ++e) {
      const NodeId j = nbr_[e];
      const auto back = slot_of(j, i);
      PCF_CHECK_MSG(back.has_value(), "asymmetric edge " << i << "->" << j);
      reverse_slot_[e] = static_cast<std::uint32_t>(*back);
    }
  }
  alive_.assign(edges, 1);
  live_slots_.resize(edges);
  live_count_.resize(n);
  for (NodeId i = 0; i < n; ++i) {
    const auto deg = static_cast<std::uint32_t>(offsets_[i + 1] - offsets_[i]);
    live_count_[i] = deg;
    for (std::uint32_t s = 0; s < deg; ++s) live_slots_[offsets_[i] + s] = s;
  }

  // Algorithm state. Only the arrays the algorithm reads are allocated.
  switch (algorithm_) {
    case Algorithm::kPushSum:
      mass_.assign(n * stride_, 0.0);
      break;
    case Algorithm::kPushFlow:
      initial_.assign(n * stride_, 0.0);
      flows_.assign(edges * stride_, 0.0);
      if (config_.pf_cached_flow_sum) cached_.assign(n * stride_, 0.0);
      break;
    case Algorithm::kPushCancelFlow:
      initial_.assign(n * stride_, 0.0);
      flows_.assign(edges * 2 * stride_, 0.0);
      phi_.assign(n * stride_, 0.0);
      pending_.assign(edges * stride_, 0.0);
      active_.assign(edges, 0);
      cycle_.assign(edges, 0);
      role_swaps_.assign(n, 0);
      break;
    case Algorithm::kFlowUpdating:
      initial_.assign(n * stride_, 0.0);
      flows_.assign(edges * stride_, 0.0);
      estimates_.assign(edges * stride_, 0.0);
      have_estimate_.assign(edges, 0);
      break;
    case Algorithm::kCorrectionAllreduce: {
      if (!config_.tree) {
        config_.tree = std::make_shared<const net::TreeSchedule>(
            net::build_tree_schedule(topology, config_.tree_kind));
      }
      tree_ = config_.tree;
      PCF_CHECK_MSG(tree_->parent.size() >= n && tree_->depth.size() >= n,
                    "tree schedule does not cover the topology");
      initial_.assign(n * stride_, 0.0);
      estimates_.assign(edges * stride_, 0.0);  // child subtree reports
      have_estimate_.assign(edges, 0);
      child_.assign(edges, 0);
      global_.assign(n * stride_, 0.0);
      have_global_.assign(n, 0);
      // Static child set per node: the edge's neighbor claims us when its
      // scheduled parent is us.
      for (NodeId i = 0; i < n; ++i) {
        for (std::size_t e = offsets_[i]; e < offsets_[i + 1]; ++e) {
          child_[e] = tree_->parent[nbr_[e]] == i ? 1 : 0;
        }
      }
      break;
    }
    case Algorithm::kFuMassHybrid:
      initial_.assign(n * stride_, 0.0);
      flows_.assign(edges * stride_, 0.0);
      estimates_.assign(edges * stride_, 0.0);  // m̂_j: neighbor's reported mass
      have_estimate_.assign(edges, 0);
      break;
  }
  std::vector<double>& input = algorithm_ == Algorithm::kPushSum ? mass_ : initial_;
  for (NodeId i = 0; i < n; ++i) store_mass(row(input, i), initial[i]);
}

std::optional<std::size_t> ArenaFleet::slot_of(NodeId i, NodeId j) const noexcept {
  const auto begin = nbr_.begin() + static_cast<std::ptrdiff_t>(offsets_[i]);
  const auto end = nbr_.begin() + static_cast<std::ptrdiff_t>(offsets_[i + 1]);
  const auto it = std::lower_bound(begin, end, j);
  if (it == end || *it != j) return std::nullopt;
  return static_cast<std::size_t>(it - begin);
}

Mass ArenaFleet::mass_from(const double* r) const {
  Mass m = Mass::zero(dim_);
  for (std::size_t k = 0; k < dim_; ++k) m.s[k] = r[k];
  m.w = r[dim_];
  return m;
}

void ArenaFleet::store_mass(double* r, const Mass& m) noexcept {
  PCF_ASSERT(m.dim() == dim_);
  for (std::size_t k = 0; k < dim_; ++k) r[k] = m.s[k];
  r[dim_] = m.w;
}

void ArenaFleet::local_mass_into(NodeId i, double* out) const noexcept {
  switch (algorithm_) {
    case Algorithm::kPushSum: {
      const double* m = row(mass_, i);
      for (std::size_t k = 0; k < stride_; ++k) out[k] = m[k];
      return;
    }
    case Algorithm::kPushFlow: {
      // PF: initial − flow_sum (sum over live slots in ascending slot order,
      // THEN one subtraction — not per-slot subtract).
      const double* init = row(initial_, i);
      if (config_.pf_cached_flow_sum) {
        const double* c = row(cached_, i);
        for (std::size_t k = 0; k < stride_; ++k) out[k] = init[k] - c[k];
        return;
      }
      double sum[kMaxStride];
      zero_row(sum, stride_);
      for (std::size_t s = 0; s < degree(i); ++s) {
        const std::size_t e = offsets_[i] + s;
        if (alive_[e] == 0) continue;
        const double* f = row(flows_, e);
        for (std::size_t k = 0; k < stride_; ++k) sum[k] += f[k];
      }
      for (std::size_t k = 0; k < stride_; ++k) out[k] = init[k] - sum[k];
      return;
    }
    case Algorithm::kPushCancelFlow: {
      // PCF: fast = initial − ϕ;
      // robust = (initial − ϕ) − Σ live slots (flow[0] then flow[1] per slot).
      const double* init = row(initial_, i);
      const double* phi = row(phi_, i);
      for (std::size_t k = 0; k < stride_; ++k) out[k] = init[k] - phi[k];
      if (config_.pcf_variant == PcfVariant::kFast) return;
      double sum[kMaxStride];
      zero_row(sum, stride_);
      for (std::size_t s = 0; s < degree(i); ++s) {
        const std::size_t e = offsets_[i] + s;
        if (alive_[e] == 0) continue;
        const double* f0 = pcf_flow(e, 0);
        const double* f1 = pcf_flow(e, 1);
        for (std::size_t k = 0; k < stride_; ++k) sum[k] += f0[k];
        for (std::size_t k = 0; k < stride_; ++k) sum[k] += f1[k];
      }
      for (std::size_t k = 0; k < stride_; ++k) out[k] -= sum[k];
      return;
    }
    case Algorithm::kFlowUpdating:
    case Algorithm::kFuMassHybrid: {
      // FU (shared by the hybrid) subtracts live flows PER SLOT from the
      // initial mass — a different rounding than PF's sum-then-subtract,
      // deliberately preserved.
      const double* init = row(initial_, i);
      for (std::size_t k = 0; k < stride_; ++k) out[k] = init[k];
      for (std::size_t s = 0; s < degree(i); ++s) {
        const std::size_t e = offsets_[i] + s;
        if (alive_[e] == 0) continue;
        const double* f = row(flows_, e);
        for (std::size_t k = 0; k < stride_; ++k) out[k] -= f[k];
      }
      return;
    }
    case Algorithm::kCorrectionAllreduce: {
      // CORR: reports move no mass — the conserved quantity is the input
      // itself.
      const double* init = row(initial_, i);
      for (std::size_t k = 0; k < stride_; ++k) out[k] = init[k];
      return;
    }
  }
}

void ArenaFleet::fused_into(NodeId i, double* out) const noexcept {
  local_mass_into(i, out);
  std::size_t count = 1;
  for (std::size_t s = 0; s < degree(i); ++s) {
    const std::size_t e = offsets_[i] + s;
    if (alive_[e] == 0 || have_estimate_[e] == 0) continue;
    const double* est = row(estimates_, e);
    for (std::size_t k = 0; k < stride_; ++k) out[k] += est[k];
    ++count;
  }
  const double inv = 1.0 / static_cast<double>(count);
  for (std::size_t k = 0; k < stride_; ++k) out[k] *= inv;
}

void ArenaFleet::subtree_sum_into(NodeId i, double* out) const noexcept {
  // CORR subtree sum: v_i plus every live, claiming, reported child's
  // report, ascending slot order.
  const double* init = row(initial_, i);
  for (std::size_t k = 0; k < stride_; ++k) out[k] = init[k];
  for (std::size_t s = 0; s < degree(i); ++s) {
    const std::size_t e = offsets_[i] + s;
    if (alive_[e] == 0 || child_[e] == 0 || have_estimate_[e] == 0) continue;
    const double* r = row(estimates_, e);
    for (std::size_t k = 0; k < stride_; ++k) out[k] += r[k];
  }
}

std::optional<std::size_t> ArenaFleet::correction_parent_slot(NodeId i) const noexcept {
  // CORR current parent: the (depth, id)-minimal live neighbor at strictly
  // smaller static depth. Ascending slots == ascending ids, so the strict <
  // breaks depth ties toward the smaller id.
  std::optional<std::size_t> best;
  std::uint32_t best_depth = tree_->depth[i];
  for (std::size_t s = 0; s < degree(i); ++s) {
    const std::size_t e = offsets_[i] + s;
    if (alive_[e] == 0) continue;
    const std::uint32_t d = tree_->depth[nbr_[e]];
    if (d < best_depth) {
      best = s;
      best_depth = d;
    }
  }
  return best;
}

Mass ArenaFleet::local_mass(NodeId i) const {
  double buf[kMaxStride];
  local_mass_into(i, buf);
  return mass_from(buf);
}

double ArenaFleet::estimate(NodeId i, std::size_t k) const {
  PCF_ASSERT(k < dim_);
  double buf[kMaxStride];
  if (algorithm_ == Algorithm::kFlowUpdating) {
    fused_into(i, buf);  // FU reports the fused neighborhood estimate
  } else if (algorithm_ == Algorithm::kCorrectionAllreduce) {
    // CORR: the parent-delivered global view while attached, the own
    // subtree sum as a (fragment) root or before the first view arrives.
    if (have_global_[i] != 0 && correction_parent_slot(i).has_value()) {
      const double* g = row(global_, i);
      for (std::size_t c = 0; c < stride_; ++c) buf[c] = g[c];
    } else {
      subtree_sum_into(i, buf);
    }
  } else {
    local_mass_into(i, buf);
  }
  if (buf[dim_] == 0.0) return 0.0;  // Mass::estimate's zero-weight rule
  return buf[k] / buf[dim_];
}

void ArenaFleet::mark_dead_slot(NodeId i, std::size_t slot) noexcept {
  const std::size_t base = offsets_[i];
  const auto s = static_cast<std::uint32_t>(slot);
  std::uint32_t* seg = live_slots_.data() + base;
  const std::uint32_t lc = live_count_[i];
  const auto pos =
      static_cast<std::size_t>(std::lower_bound(seg, seg + lc, s) - seg);
  for (std::size_t p = pos; p + 1 < lc; ++p) seg[p] = seg[p + 1];
  --live_count_[i];
  alive_[base + slot] = 0;
}

void ArenaFleet::mark_alive_slot(NodeId i, std::size_t slot) noexcept {
  const std::size_t base = offsets_[i];
  const auto s = static_cast<std::uint32_t>(slot);
  std::uint32_t* seg = live_slots_.data() + base;
  const std::uint32_t lc = live_count_[i];
  const auto pos =
      static_cast<std::size_t>(std::lower_bound(seg, seg + lc, s) - seg);
  for (std::size_t p = lc; p > pos; --p) seg[p] = seg[p - 1];
  seg[pos] = s;
  ++live_count_[i];
  alive_[base + slot] = 1;
}

void ArenaFleet::on_link_down(NodeId i, NodeId j) {
  const auto slot = slot_of(i, j);
  if (!slot || alive_[offsets_[i] + *slot] == 0) return;  // unknown or already dead
  // CORR resolves its current parent BEFORE the exclusion takes effect, so
  // losing the parent link is recognized below.
  std::optional<std::size_t> parent_slot;
  if (algorithm_ == Algorithm::kCorrectionAllreduce) parent_slot = correction_parent_slot(i);
  mark_dead_slot(i, *slot);
  const std::size_t e = offsets_[i] + *slot;
  switch (algorithm_) {
    case Algorithm::kPushSum:
      return;  // no flow state to roll back
    case Algorithm::kPushFlow: {
      double* f = row(flows_, e);
      if (config_.pf_cached_flow_sum) {
        double* c = row(cached_, i);
        for (std::size_t k = 0; k < stride_; ++k) c[k] -= f[k];
      }
      zero_row(f, stride_);
      return;
    }
    case Algorithm::kPushCancelFlow: {
      double* f0 = pcf_flow(e, 0);
      double* f1 = pcf_flow(e, 1);
      if (config_.pcf_variant == PcfVariant::kFast) {
        double* phi = row(phi_, i);
        for (std::size_t k = 0; k < stride_; ++k) phi[k] -= f0[k];
        for (std::size_t k = 0; k < stride_; ++k) phi[k] -= f1[k];
      }
      zero_row(f0, stride_);
      zero_row(f1, stride_);
      if (i < j && cycle_[e] % 2 == 1) {
        // Initiator mid-transition: un-absorb the half of a cancellation the
        // peer (very likely) never completed — its explicit copy just died
        // with the link, so keeping our absorbed half would permanently
        // remove that mass. (If the peer DID complete and its swap notice was
        // exactly the packet the failure destroyed, this rollback creates the
        // bias instead: a two-generals window no local rule can close, one
        // packet flight wide instead of the whole cancellation window.)
        double* phi = row(phi_, i);
        double* pending = row(pending_, e);
        for (std::size_t k = 0; k < stride_; ++k) phi[k] -= pending[k];
        zero_row(pending, stride_);
      }
      return;
    }
    case Algorithm::kFlowUpdating:
    case Algorithm::kFuMassHybrid: {
      zero_row(row(flows_, e), stride_);
      zero_row(row(estimates_, e), stride_);
      have_estimate_[e] = 0;
      return;
    }
    case Algorithm::kCorrectionAllreduce: {
      zero_row(row(estimates_, e), stride_);
      have_estimate_[e] = 0;
      child_[e] = 0;
      // Losing the parent drops the global view.
      if (parent_slot && *parent_slot == *slot) have_global_[i] = 0;
      return;
    }
  }
}

void ArenaFleet::on_link_up(NodeId i, NodeId j) {
  const auto slot = slot_of(i, j);
  if (!slot || alive_[offsets_[i] + *slot] != 0) return;  // unknown or already alive
  mark_alive_slot(i, *slot);
  const std::size_t e = offsets_[i] + *slot;
  switch (algorithm_) {
    case Algorithm::kPushSum:
      return;
    case Algorithm::kPushFlow:
      zero_row(row(flows_, e), stride_);
      return;
    case Algorithm::kPushCancelFlow:
      // Factory-fresh edge: zero flows, slot 1 active, cycle 0 (both
      // endpoints restart aligned in a steady phase).
      zero_row(pcf_flow(e, 0), stride_);
      zero_row(pcf_flow(e, 1), stride_);
      active_[e] = 0;
      cycle_[e] = 0;
      zero_row(row(pending_, e), stride_);
      return;
    case Algorithm::kFlowUpdating:
    case Algorithm::kFuMassHybrid:
      zero_row(row(flows_, e), stride_);
      zero_row(row(estimates_, e), stride_);
      have_estimate_[e] = 0;
      return;
    case Algorithm::kCorrectionAllreduce:
      // Blank edge: no claim, no report, until the neighbor's first packet.
      zero_row(row(estimates_, e), stride_);
      have_estimate_[e] = 0;
      child_[e] = 0;
      return;
  }
}

void ArenaFleet::update_data(NodeId i, const Mass& delta) {
  PCF_CHECK_MSG(delta.dim() == dim_, "update_data dimension mismatch");
  double* r = algorithm_ == Algorithm::kPushSum ? row(mass_, i) : row(initial_, i);
  for (std::size_t k = 0; k < dim_; ++k) r[k] += delta.s[k];
  r[dim_] += delta.w;
}

bool ArenaFleet::corrupt_stored_flow(NodeId i, Rng& rng) {
  if (algorithm_ == Algorithm::kPushSum) return false;  // no stored flows, no draws
  const std::size_t deg = degree(i);
  double* victim_row = nullptr;
  if (algorithm_ == Algorithm::kPushCancelFlow) {
    const auto edge = static_cast<std::size_t>(rng.below(deg));
    victim_row = pcf_flow(offsets_[i] + edge, static_cast<std::uint8_t>(rng.below(2)));
  } else if (algorithm_ == Algorithm::kCorrectionAllreduce) {
    // Victim: one stored child report, or (last index) the global view.
    const auto victim_index = static_cast<std::size_t>(rng.below(deg + 1));
    victim_row =
        victim_index < deg ? row(estimates_, offsets_[i] + victim_index) : row(global_, i);
  } else {
    const auto slot = static_cast<std::size_t>(rng.below(deg));
    victim_row = row(flows_, offsets_[i] + slot);
  }
  // Layout [s0..s_{d-1}, w]: the drawn component below(dim+1) IS the flat
  // index, with dim mapping to w.
  const auto component = static_cast<std::size_t>(rng.below(dim_ + 1));
  double& victim = victim_row[component];
  std::uint64_t bit = rng.below(53);
  if (bit == 52) bit = 63;  // sign bit
  std::uint64_t bits;
  std::memcpy(&bits, &victim, sizeof bits);
  bits ^= (std::uint64_t{1} << bit);
  std::memcpy(&victim, &bits, sizeof bits);
  return true;
}

void ArenaFleet::reset_node(NodeId i, const Mass& initial) {
  PCF_CHECK_MSG(initial.dim() == dim_, "reset_node dimension mismatch");
  const std::size_t base = offsets_[i];
  const std::size_t deg = degree(i);
  for (std::uint32_t s = 0; s < deg; ++s) {
    alive_[base + s] = 1;
    live_slots_[base + s] = s;
  }
  live_count_[i] = static_cast<std::uint32_t>(deg);
  switch (algorithm_) {
    case Algorithm::kPushSum:
      store_mass(row(mass_, i), initial);
      return;
    case Algorithm::kPushFlow:
      store_mass(row(initial_, i), initial);
      for (std::size_t s = 0; s < deg; ++s) zero_row(row(flows_, base + s), stride_);
      if (config_.pf_cached_flow_sum) zero_row(row(cached_, i), stride_);
      return;
    case Algorithm::kPushCancelFlow:
      store_mass(row(initial_, i), initial);
      for (std::size_t s = 0; s < deg; ++s) {
        zero_row(pcf_flow(base + s, 0), stride_);
        zero_row(pcf_flow(base + s, 1), stride_);
        zero_row(row(pending_, base + s), stride_);
        active_[base + s] = 0;
        cycle_[base + s] = 0;
      }
      zero_row(row(phi_, i), stride_);
      role_swaps_[i] = 0;
      return;
    case Algorithm::kFlowUpdating:
    case Algorithm::kFuMassHybrid:
      store_mass(row(initial_, i), initial);
      for (std::size_t s = 0; s < deg; ++s) {
        zero_row(row(flows_, base + s), stride_);
        zero_row(row(estimates_, base + s), stride_);
        have_estimate_[base + s] = 0;
      }
      return;
    case Algorithm::kCorrectionAllreduce:
      store_mass(row(initial_, i), initial);
      for (std::size_t s = 0; s < deg; ++s) {
        const std::size_t e = base + s;
        zero_row(row(estimates_, e), stride_);
        have_estimate_[e] = 0;
        // Factory-fresh state re-derives the STATIC child set from the
        // schedule.
        child_[e] = tree_->parent[nbr_[e]] == i ? 1 : 0;
      }
      zero_row(row(global_, i), stride_);
      have_global_[i] = 0;
      return;
  }
}

template <class Io, class Self>
void ArenaFleet::node_field_list(Io& io, Self& self, NodeId i) {
  const std::size_t base = self.offsets_[i];
  const std::size_t deg = self.degree(i);
  std::uint64_t saved_degree = deg;
  io.field(saved_degree);
  io.require(saved_degree == deg, "arena checkpoint: node degree mismatch");
  for (std::size_t s = 0; s < deg; ++s) io.flag(self.alive_[base + s]);
  if constexpr (Io::kReading) {
    std::uint32_t lc = 0;
    for (std::uint32_t s = 0; s < deg; ++s) {
      if (self.alive_[base + s] != 0) self.live_slots_[base + lc++] = s;
    }
    self.live_count_[i] = lc;
  }
  const auto row = [&](auto& rows, std::size_t index) {
    io.row(self.row(rows, index), self.stride_);
  };
  switch (self.algorithm_) {
    case Algorithm::kPushSum:
      row(self.mass_, i);
      return;
    case Algorithm::kPushFlow:
      row(self.initial_, i);  // mutable via update_data
      for (std::size_t s = 0; s < deg; ++s) row(self.flows_, base + s);
      if (self.config_.pf_cached_flow_sum) row(self.cached_, i);
      return;
    case Algorithm::kPushCancelFlow:
      row(self.initial_, i);
      for (std::size_t s = 0; s < deg; ++s) {
        const std::size_t e = base + s;
        io.row(self.pcf_flow(e, 0), self.stride_);
        io.row(self.pcf_flow(e, 1), self.stride_);
        io.field(self.active_[e]);
        io.require(self.active_[e] <= 1, "arena checkpoint: active slot out of range");
        io.field(self.cycle_[e]);
        row(self.pending_, e);
      }
      row(self.phi_, i);
      io.field(self.role_swaps_[i]);
      return;
    case Algorithm::kFlowUpdating:
    case Algorithm::kFuMassHybrid:
      row(self.initial_, i);
      for (std::size_t s = 0; s < deg; ++s) {
        const std::size_t e = base + s;
        row(self.flows_, e);
        row(self.estimates_, e);
        io.flag(self.have_estimate_[e]);
      }
      return;
    case Algorithm::kCorrectionAllreduce:
      row(self.initial_, i);
      for (std::size_t s = 0; s < deg; ++s) {
        const std::size_t e = base + s;
        row(self.estimates_, e);
        io.flag(self.have_estimate_[e]);
        io.flag(self.child_[e]);
      }
      row(self.global_, i);
      io.flag(self.have_global_[i]);
      return;
  }
}

void ArenaFleet::node_fields(BinaryWriter& w, NodeId i) const { node_field_list(w, *this, i); }

void ArenaFleet::node_fields(BinaryReader& r, NodeId i) { node_field_list(r, *this, i); }

double ArenaFleet::max_abs_flow_component(NodeId i) const noexcept {
  double best = 0.0;
  const auto scan = [&](const double* r) {
    for (std::size_t k = 0; k < stride_; ++k) best = std::max(best, std::fabs(r[k]));
  };
  switch (algorithm_) {
    case Algorithm::kPushSum:
    case Algorithm::kCorrectionAllreduce:
      return 0.0;  // no flow state
    case Algorithm::kPushFlow:
    case Algorithm::kFlowUpdating:
    case Algorithm::kFuMassHybrid:
      for (std::size_t s = 0; s < degree(i); ++s) {
        const std::size_t e = offsets_[i] + s;
        if (alive_[e] != 0) scan(row(flows_, e));
      }
      return best;
    case Algorithm::kPushCancelFlow:
      for (std::size_t s = 0; s < degree(i); ++s) {
        const std::size_t e = offsets_[i] + s;
        if (alive_[e] == 0) continue;
        scan(pcf_flow(e, 0));
        scan(pcf_flow(e, 1));
      }
      return best;
  }
  return best;
}

std::uint64_t ArenaFleet::role_swaps(NodeId i) const noexcept {
  return algorithm_ == Algorithm::kPushCancelFlow ? role_swaps_[i] : 0;
}

std::size_t ArenaFleet::wire_masses() const noexcept {
  switch (algorithm_) {
    case Algorithm::kPushSum:
    case Algorithm::kPushFlow:
      return 1;
    case Algorithm::kPushCancelFlow:
    case Algorithm::kFlowUpdating:
    case Algorithm::kCorrectionAllreduce:
    case Algorithm::kFuMassHybrid:
      return 2;
  }
  return 1;
}

std::size_t ArenaFleet::flows_toward(NodeId i, NodeId j, std::span<Mass> out) const {
  if (algorithm_ == Algorithm::kPushSum || algorithm_ == Algorithm::kCorrectionAllreduce) {
    return 0;  // no flow state
  }
  const auto slot = slot_of(i, j);
  if (!slot || alive_[offsets_[i] + *slot] == 0) return 0;
  const std::size_t e = offsets_[i] + *slot;
  if (algorithm_ == Algorithm::kPushCancelFlow) {
    if (out.size() < 2) return 0;
    out[0] = mass_from(pcf_flow(e, 0));
    out[1] = mass_from(pcf_flow(e, 1));
    return 2;
  }
  if (out.empty()) return 0;
  out[0] = mass_from(row(flows_, e));
  return 1;
}

ArenaFleet::PcfEdgeView ArenaFleet::pcf_edge_state(NodeId i, NodeId j) const {
  PCF_CHECK_MSG(algorithm_ == Algorithm::kPushCancelFlow, "pcf_edge_state on non-PCF arena");
  const auto slot = slot_of(i, j);
  PCF_CHECK_MSG(slot.has_value(), "pcf_edge_state: node " << j << " is not a neighbor");
  const std::size_t e = offsets_[i] + *slot;
  return PcfEdgeView{static_cast<std::uint8_t>(active_[e] + 1), cycle_[e]};
}

std::optional<NodeId> ArenaFleet::correction_parent(NodeId i) const noexcept {
  const auto slot = correction_parent_slot(i);
  if (!slot) return std::nullopt;
  return nbr_[offsets_[i] + *slot];
}

Mass ArenaFleet::unreceived_mass(NodeId i, NodeId from, const Packet& packet) const {
  Mass delta = Mass::zero(dim_);
  const auto slot = slot_of(i, from);
  switch (algorithm_) {
    case Algorithm::kPushSum: {
      if (!slot || packet.a.dim() != dim_) return delta;
      return packet.a;
    }
    case Algorithm::kPushFlow: {
      if (!slot || alive_[offsets_[i] + *slot] == 0 || packet.a.dim() != dim_) return delta;
      return mass_from(row(flows_, offsets_[i] + *slot)) + packet.a;
    }
    case Algorithm::kFlowUpdating:
    case Algorithm::kFuMassHybrid: {
      if (!slot || alive_[offsets_[i] + *slot] == 0 || packet.a.dim() != dim_ ||
          packet.b.dim() != dim_) {
        return delta;
      }
      return mass_from(row(flows_, offsets_[i] + *slot)) + packet.a;
    }
    case Algorithm::kCorrectionAllreduce:
      return delta;  // reports carry no conserved mass
    case Algorithm::kPushCancelFlow:
      break;  // handled below
  }

  // PCF: replay the receive phase rules without mutating — determine which
  // slots the packet would mirror and sum their mass deltas. Mirroring slot s
  // to −packet[s] changes local_mass by f_old[s] + packet[s]; absorptions and
  // role swaps move mass between ϕ and the slots and are mass-neutral.
  if (!slot || alive_[offsets_[i] + *slot] == 0) return delta;
  if (packet.a.dim() != dim_ || packet.b.dim() != dim_) return delta;
  if (packet.active_slot != 1 && packet.active_slot != 2) return delta;
  const std::size_t e = offsets_[i] + *slot;
  const std::uint64_t r_p = packet.role_count;
  const auto mirror_delta = [&](std::uint8_t s) {
    delta += mass_from(pcf_flow(e, s)) + packet_slot(packet, s);
  };

  if (i < from) {  // we are the initiator
    if (r_p == cycle_[e]) {
      if (cycle_[e] % 2 == 1) {
        mirror_delta(static_cast<std::uint8_t>(1 - active_[e]));
      } else {
        mirror_delta(active_[e]);
      }
    } else if (r_p + 1 == cycle_[e]) {
      mirror_delta(active_[e]);
    }
    return delta;
  }

  // We are the completer.
  std::uint8_t active = active_[e];
  std::uint64_t cycle = cycle_[e];
  if (r_p == cycle + 1) {
    if (cycle % 2 == 0) active = static_cast<std::uint8_t>(1 - active);
    ++cycle;
  } else if (r_p != cycle) {
    return delta;
  }
  if (cycle % 2 == 1) {
    mirror_delta(static_cast<std::uint8_t>(1 - active));
  } else {
    mirror_delta(active);
    mirror_delta(static_cast<std::uint8_t>(1 - active));
  }
  return delta;
}

// ---- PCF receive rules ----

void ArenaFleet::pcf_mirror_slot(std::size_t e, std::uint8_t which,
                                 const Mass& received) noexcept {
  // Recover the edge's owner from the edge index via the peer's reverse slot.
  const NodeId peer = nbr_[e];
  const NodeId owner = nbr_[offsets_[peer] + reverse_slot_[e]];
  double* f = pcf_flow(e, which);
  const bool fast = config_.pcf_variant == PcfVariant::kFast;
  double* phi = fast ? row(phi_, owner) : nullptr;
  // Per component: mirrored = −received; ϕ −= old flow; ϕ += mirrored;
  // flow = mirrored (two separate ϕ updates — do not fuse, the rounding
  // differs).
  for (std::size_t k = 0; k < dim_; ++k) {
    const double mirrored = -received.s[k];
    if (fast) {
      phi[k] -= f[k];
      phi[k] += mirrored;
    }
    f[k] = mirrored;
  }
  const double mirrored_w = -received.w;
  if (fast) {
    phi[dim_] -= f[dim_];
    phi[dim_] += mirrored_w;
  }
  f[dim_] = mirrored_w;
}

void ArenaFleet::pcf_absorb_passive(NodeId i, std::size_t e) noexcept {
  const auto pas = static_cast<std::uint8_t>(1 - active_[e]);
  double* f = pcf_flow(e, pas);
  if (config_.pcf_variant == PcfVariant::kRobust) {
    double* phi = row(phi_, i);
    for (std::size_t k = 0; k < stride_; ++k) phi[k] += f[k];
  }
  zero_row(f, stride_);
}

void ArenaFleet::pcf_receive_as_initiator(NodeId i, std::size_t e,
                                          const Packet& packet) noexcept {
  const std::uint64_t r_p = packet.role_count;

  if (r_p == cycle_[e]) {
    if (cycle_[e] % 2 == 1) {
      // Transition: the completer completed and swapped — adopt.
      active_[e] = static_cast<std::uint8_t>(1 - active_[e]);
      zero_row(row(pending_, e), stride_);
      ++cycle_[e];
      ++role_swaps_[i];
      pcf_mirror_slot(e, active_[e], packet_slot(packet, active_[e]));
      return;
    }
    // Steady: plain PF on the active slot.
    const std::uint8_t act = active_[e];
    const auto pas = static_cast<std::uint8_t>(1 - act);
    pcf_mirror_slot(e, act, packet_slot(packet, act));
    // Cancel check: the packet's passive copy must be the exact negation of
    // our frozen passive (Mass::is_negation_of, component-wise exact).
    const Mass& p = packet_slot(packet, pas);
    const double* f = pcf_flow(e, pas);
    bool negation = p.w == -f[dim_];
    for (std::size_t k = 0; negation && k < dim_; ++k) negation = p.s[k] == -f[k];
    if (negation) {
      double* pending = row(pending_, e);
      for (std::size_t k = 0; k < stride_; ++k) pending[k] = f[k];
      pcf_absorb_passive(i, e);
      ++cycle_[e];  // enter the transition phase
    }
  } else if (r_p + 1 == cycle_[e]) {
    // Completer one phase behind — PF keeps running on the shared active.
    pcf_mirror_slot(e, active_[e], packet_slot(packet, active_[e]));
  }
  // else: stale pipeline leftovers (≥ 2 phases old) — drop.
}

void ArenaFleet::pcf_receive_as_completer(NodeId i, std::size_t e,
                                          const Packet& packet) noexcept {
  const std::uint64_t r_p = packet.role_count;

  if (r_p == cycle_[e] + 1) {
    if (cycle_[e] % 2 == 0) {
      // The initiator cancelled; our mirrored passive absorbs to zero net.
      pcf_absorb_passive(i, e);
      active_[e] = static_cast<std::uint8_t>(1 - active_[e]);
      ++cycle_[e];
      ++role_swaps_[i];
    } else {
      // The initiator adopted our swap — steady phase begins.
      ++cycle_[e];
    }
  } else if (r_p != cycle_[e]) {
    return;  // unreachable under FIFO; drop defensively
  }

  const std::uint8_t act = active_[e];
  const auto pas = static_cast<std::uint8_t>(1 - act);
  if (cycle_[e] % 2 == 1) {
    pcf_mirror_slot(e, pas, packet_slot(packet, pas));
    return;
  }
  pcf_mirror_slot(e, act, packet_slot(packet, act));
  pcf_mirror_slot(e, pas, packet_slot(packet, pas));
}

// ---- untyped by-id entries ----

std::optional<ArenaFleet::Send> ArenaFleet::make_message(NodeId i, Rng& rng) {
  return dispatch(algorithm_,
                  [&](auto a) { return make_message<decltype(a)::value>(i, rng); });
}

std::optional<ArenaFleet::Send> ArenaFleet::make_message_to(NodeId i, NodeId target) {
  return dispatch(algorithm_,
                  [&](auto a) { return make_message_to<decltype(a)::value>(i, target); });
}

void ArenaFleet::receive(NodeId i, NodeId from, const Packet& packet) {
  const auto slot = slot_of(i, from);
  if (!slot) return;  // stale packet from a removed link, or a stranger
  dispatch(algorithm_, [&](auto a) { receive<decltype(a)::value>(i, from, *slot, packet); });
}

}  // namespace pcf::core
