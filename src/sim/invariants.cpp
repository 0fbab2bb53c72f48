#include "sim/invariants.hpp"

#include <array>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "support/check.hpp"

namespace pcf::sim {

namespace {

void kahan_add(double& sum, double& compensation, double value) {
  const double y = value - compensation;
  const double t = sum + y;
  compensation = (t - sum) - y;
  sum = t;
}

std::string format_edge(NodeId a, NodeId b) {
  std::ostringstream os;
  os << a << "-" << b;
  return os.str();
}

// ---------------------------------------------------------------------------
// Global mass conservation: Σ live local_mass() == oracle's conserved mass.
// Exact only at round boundaries of a sequential-delivery engine with a clean
// transport; a fired link failure relaxes PCF to a loose bound (an
// interrupted cancellation handshake can lose one in-flight flow's mass).
class MassConservationChecker final : public InvariantChecker {
 public:
  explicit MassConservationChecker(const InvariantConfig& config) : config_(config) {}

  [[nodiscard]] std::string_view name() const noexcept override { return "mass-conservation"; }

  void check(const SystemView& view, std::vector<InvariantViolation>& out) override {
    const FaultExposure f = view.faults();
    if (f.in_flight || !f.transport_clean() || f.crash_settling) return;
    // Duplicated delivery is idempotent for the flow algorithms but ADDS mass
    // for push-sum (each share is a transfer) — no conservation to check.
    if (view.algorithm() == core::Algorithm::kPushSum && f.messages_duplicated > 0) return;
    const Oracle& oracle = view.oracle();
    const std::size_t d = oracle.dim();
    std::array<double, core::kMaxDim + 1> sum{};
    std::array<double, core::kMaxDim + 1> comp{};
    bool saw_live_node = false;
    const auto n = static_cast<NodeId>(view.topology().size());
    for (NodeId i = 0; i < n; ++i) {
      if (!view.alive(i)) continue;
      const core::Mass m = view.fleet().local_mass(i);
      if (m.dim() != d) {
        out.push_back({std::string(name()), view.time(),
                       "node mass dimension mismatch vs oracle"});
        return;
      }
      saw_live_node = true;
      for (std::size_t k = 0; k < d; ++k) kahan_add(sum[k], comp[k], m.s[k]);
      kahan_add(sum[d], comp[d], m.w);
    }
    if (!saw_live_node) return;
    // A link exclusion can interrupt a PCF cancellation mid-handshake (a real
    // failure OR a detector false positive): the initiator's pending_absorbed
    // rollback is a guess that is wrong when the completer had already
    // finished, biasing the total by one flow's mass. Relax to a loose bound.
    const bool pcf_handshake_window =
        view.algorithm() == core::Algorithm::kPushCancelFlow &&
        (f.link_failures > 0 || f.false_detects > 0);
    const double tol = pcf_handshake_window ? config_.mass_fault_tol : config_.mass_rel_tol;
    for (std::size_t k = 0; k <= d; ++k) {
      const double expected = k < d ? oracle.numerator(k) : oracle.total_weight();
      const double scale = std::max(1.0, std::fabs(expected));
      if (!(std::fabs(sum[k] - expected) <= tol * scale)) {
        std::ostringstream os;
        os.precision(17);
        os << (k < d ? "component " : "weight (component ") << k << (k < d ? "" : ")")
           << ": live mass sum " << sum[k] << " vs conserved " << expected << " (tol "
           << tol * scale << ")";
        out.push_back({std::string(name()), view.time(), os.str()});
      }
    }
  }

 private:
  InvariantConfig config_;
};

// ---------------------------------------------------------------------------
// Pairwise flow antisymmetry: for every live edge, the two endpoints' stored
// flow slots are exact negations. Holds bit-exactly at sequential round
// boundaries with a clean transport. For PCF, a slot pair is only comparable
// while the edge handshake is phase-aligned in a steady phase (equal, even
// cycle counters); skewed edges are mid-cancellation by design.
class FlowAntisymmetryChecker final : public InvariantChecker {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "flow-antisymmetry"; }

  void check(const SystemView& view, std::vector<InvariantViolation>& out) override {
    const FaultExposure f = view.faults();
    if (f.in_flight || !f.transport_clean()) return;
    const auto algorithm = view.algorithm();
    if (algorithm == core::Algorithm::kPushSum) return;
    if (edges_.empty()) edges_ = view.topology().edges();
    std::array<core::Mass, core::ArenaFleet::kMaxFlowSlots> fa;
    std::array<core::Mass, core::ArenaFleet::kMaxFlowSlots> fb;
    const core::ArenaFleet& fleet = view.fleet();
    for (const auto& [a, b] : edges_) {
      if (!view.alive(a) || !view.alive(b) || view.link_dead(a, b)) continue;
      const std::size_t na = fleet.flows_toward(a, b, fa);
      const std::size_t nb = fleet.flows_toward(b, a, fb);
      if (na != nb) {
        out.push_back({std::string(name()), view.time(),
                       "edge " + format_edge(a, b) + ": endpoints disagree on slot count"});
        continue;
      }
      if (na == 0) continue;
      if (algorithm == core::Algorithm::kPushCancelFlow) {
        const auto ea = fleet.pcf_edge_state(a, b);
        const auto eb = fleet.pcf_edge_state(b, a);
        if (ea.role_count != eb.role_count || ea.role_count % 2 != 0) continue;
      }
      for (std::size_t s = 0; s < na; ++s) {
        if (!fb[s].is_negation_of(fa[s])) {
          std::ostringstream os;
          os.precision(17);
          os << "edge " << format_edge(a, b) << " slot " << s << ": f[" << a << "->" << b
             << "].w=" << fa[s].w << " is not the exact negation of f[" << b << "->" << a
             << "].w=" << fb[s].w;
          out.push_back({std::string(name()), view.time(), os.str()});
        }
      }
    }
  }

 private:
  std::vector<std::pair<NodeId, NodeId>> edges_;
};

// ---------------------------------------------------------------------------
// PCF handshake discipline. These are receipt-driven properties of the
// asymmetric handshake (see core/arena.hpp) and hold under EVERY
// delivery model and under arbitrary message loss:
//  * per-edge cycle counters never decrease;
//  * completer cycle ≤ initiator cycle ≤ completer cycle + 1;
//  * slot agreement by phase parity: equal even cycles → active slots agree;
//    equal odd cycles → completer has swapped, initiator not (slots differ);
//    initiator one ahead → slots agree in both parities;
//  * wire-visible active slot is always 1 or 2.
class PcfHandshakeChecker final : public InvariantChecker {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "pcf-handshake"; }

  void check(const SystemView& view, std::vector<InvariantViolation>& out) override {
    if (view.algorithm() != core::Algorithm::kPushCancelFlow) return;
    if (edges_.empty()) {
      edges_ = view.topology().edges();  // pairs are (initiator, completer): i < j
      prev_.assign(edges_.size(), {0, 0});
    }
    // Recovery events (heal / rejoin / false-positive clear) legitimately
    // reset an edge's cycle counters to zero via on_link_up. The engine does
    // not say WHICH edge, so resynchronize the whole history and skip the
    // monotonicity comparison — and keep doing so while up-notices are still
    // in flight (under detection_delay > 0 the reset lands when the notice
    // DELIVERS, rounds after the recovery counter ticked) plus one check
    // past the drain (the last notice resets state in its delivery round).
    const FaultExposure f = view.faults();
    const bool resync = f.recovery_count() != last_recoveries_ || f.pending_up_notices > 0 ||
                        last_pending_up_ > 0;
    last_recoveries_ = f.recovery_count();
    last_pending_up_ = f.pending_up_notices;
    for (std::size_t idx = 0; idx < edges_.size(); ++idx) {
      const auto [a, b] = edges_[idx];
      if (!view.alive(a) || !view.alive(b) || view.link_dead(a, b)) continue;
      const auto ea = view.fleet().pcf_edge_state(a, b);  // a is the initiator (a < b)
      const auto eb = view.fleet().pcf_edge_state(b, a);
      if ((ea.active_slot != 1 && ea.active_slot != 2) ||
          (eb.active_slot != 1 && eb.active_slot != 2)) {
        out.push_back({std::string(name()), view.time(),
                       "edge " + format_edge(a, b) + ": active slot out of {1,2}"});
        continue;
      }
      const std::uint64_t ci = ea.role_count;
      const std::uint64_t cc = eb.role_count;
      const bool backwards = ci < prev_[idx].first || cc < prev_[idx].second;
      prev_[idx] = {ci, cc};
      // During a recovery window the cross-endpoint state is legitimately
      // inconsistent: a rejoin revives transport immediately, but the
      // surviving endpoint keeps its pre-crash edge state until its delayed
      // on_link_up notice lands. Record history, assert nothing.
      if (resync) continue;
      if (backwards) {
        out.push_back({std::string(name()), view.time(),
                       "edge " + format_edge(a, b) + ": cycle counter went backwards"});
      }
      if (!(cc <= ci && ci <= cc + 1)) {
        std::ostringstream os;
        os << "edge " << format_edge(a, b) << ": cycle skew (initiator " << ci << ", completer "
           << cc << ")";
        out.push_back({std::string(name()), view.time(), os.str()});
        continue;
      }
      const bool slots_agree = ea.active_slot == eb.active_slot;
      if (ci == cc) {
        if (ci % 2 == 0 && !slots_agree) {
          out.push_back({std::string(name()), view.time(),
                         "edge " + format_edge(a, b) +
                             ": steady phase but active slots disagree"});
        }
        if (ci % 2 == 1 && slots_agree) {
          out.push_back({std::string(name()), view.time(),
                         "edge " + format_edge(a, b) +
                             ": equal odd cycles but completer has not swapped"});
        }
      } else if (!slots_agree) {  // ci == cc + 1
        out.push_back({std::string(name()), view.time(),
                       "edge " + format_edge(a, b) +
                           ": skewed phases must agree on the active slot"});
      }
    }
  }

 private:
  std::vector<std::pair<NodeId, NodeId>> edges_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> prev_;
  std::size_t last_recoveries_ = 0;
  std::size_t last_pending_up_ = 0;
};

// ---------------------------------------------------------------------------
// Estimate-error monotone envelope — the "failures cause no convergence
// fall-back" claim. The max relative error must never exceed
// max(envelope_factor × best-seen, envelope_floor); the envelope resets on
// every fault/update event and on every oracle retarget (those error jumps
// are expected). Disabled entirely under continuous loss/corruption, where
// no envelope exists.
class EstimateEnvelopeChecker final : public InvariantChecker {
 public:
  explicit EstimateEnvelopeChecker(const InvariantConfig& config) : config_(config) {}

  [[nodiscard]] std::string_view name() const noexcept override { return "estimate-envelope"; }

  void check(const SystemView& view, std::vector<InvariantViolation>& out) override {
    const FaultExposure f = view.faults();
    if (f.lossy_env) return;
    // The envelope is a ROUND-BOUNDARY property: with packets in flight
    // (async engine, crossing delivery) a node that sent several times before
    // its mirror caught up can transiently hold near-zero weight, spiking its
    // relative error to O(1) with no fault anywhere — and it self-heals.
    if (f.in_flight) return;
    // While a crash settles, survivors drift away from the STALE target until
    // the oracle retargets — an expected error excursion, not a fall-back.
    if (f.crash_settling) return;
    const Oracle& oracle = view.oracle();
    std::vector<double> targets(oracle.dim());
    for (std::size_t k = 0; k < targets.size(); ++k) targets[k] = oracle.target(k);
    if (!initialized_ || f.event_count() != last_events_ || targets != last_targets_) {
      best_ = std::numeric_limits<double>::infinity();
      last_events_ = f.event_count();
      last_targets_ = std::move(targets);
      initialized_ = true;
    }
    double worst = 0.0;
    const auto n = static_cast<NodeId>(view.topology().size());
    for (NodeId i = 0; i < n; ++i) {
      if (!view.alive(i)) continue;
      for (std::size_t k = 0; k < oracle.dim(); ++k) {
        worst = std::max(worst, oracle.error_of(view.fleet().estimate(i, k), k));
      }
    }
    if (!std::isfinite(worst)) return;  // the finite-state checker reports this
    const double envelope = std::max(config_.envelope_factor * best_, config_.envelope_floor);
    if (best_ <= config_.envelope_arm && worst > envelope) {
      std::ostringstream os;
      os.precision(6);
      os << "max relative error " << worst << " exceeds envelope " << envelope
         << " (best seen since last fault event: " << best_ << ") — convergence fell back";
      out.push_back({std::string(name()), view.time(), os.str()});
    }
    best_ = std::min(best_, worst);
  }

 private:
  InvariantConfig config_;
  double best_ = std::numeric_limits<double>::infinity();
  std::size_t last_events_ = 0;
  std::vector<double> last_targets_;
  bool initialized_ = false;
};

// ---------------------------------------------------------------------------
// Finite state: every live node's estimates and flow magnitudes are finite.
// Suspended only when exponent-bit packet corruption is enabled (NaN/Inf
// injection is then the *point* of the experiment).
class FiniteStateChecker final : public InvariantChecker {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "finite-state"; }

  void check(const SystemView& view, std::vector<InvariantViolation>& out) override {
    const FaultExposure f = view.faults();
    if (f.any_bit_flips) return;
    const Oracle& oracle = view.oracle();
    const core::ArenaFleet& fleet = view.fleet();
    const auto n = static_cast<NodeId>(view.topology().size());
    for (NodeId i = 0; i < n; ++i) {
      if (!view.alive(i)) continue;
      for (std::size_t k = 0; k < oracle.dim(); ++k) {
        if (!std::isfinite(fleet.estimate(i, k))) {
          std::ostringstream os;
          os << "node " << i << " estimate(" << k << ") is not finite";
          out.push_back({std::string(name()), view.time(), os.str()});
          break;
        }
      }
      if (!std::isfinite(fleet.max_abs_flow_component(i))) {
        std::ostringstream os;
        os << "node " << i << " has a non-finite flow component";
        out.push_back({std::string(name()), view.time(), os.str()});
      }
    }
  }
};

}  // namespace

bool InvariantConfig::resolve_enabled() const {
  if (enabled.has_value()) return *enabled;
  // pcflow-lint: allow(D1) arming switch only: read once, never feeds simulation
  // state — the checkers observe the run, they do not perturb it
  const char* env = std::getenv("PCF_CHECK_INVARIANTS");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

InvariantMonitor::InvariantMonitor(InvariantConfig config) : config_(config) {
  PCF_CHECK_MSG(config_.check_every > 0, "invariant check cadence must be positive");
}

void InvariantMonitor::add_checker(std::unique_ptr<InvariantChecker> checker) {
  PCF_CHECK_MSG(checker != nullptr, "null invariant checker");
  checkers_.push_back(std::move(checker));
}

void InvariantMonitor::install_default_checkers() {
  add_checker(make_mass_conservation_checker(config_));
  add_checker(make_flow_antisymmetry_checker());
  add_checker(make_pcf_handshake_checker());
  add_checker(make_estimate_envelope_checker(config_));
  add_checker(make_finite_state_checker());
}

void InvariantMonitor::check(const SystemView& view) {
  ++checks_run_;
  std::vector<InvariantViolation> found;
  for (auto& checker : checkers_) checker->check(view, found);
  if (found.empty()) return;
  const std::size_t first_new = violations_.size();
  violations_.insert(violations_.end(), found.begin(), found.end());
  if (!config_.throw_on_violation) return;
  std::ostringstream os;
  os << "invariant violation at t=" << view.time() << " (" << found.size() << " finding"
     << (found.size() == 1 ? "" : "s") << "):";
  const std::size_t shown = std::min<std::size_t>(found.size(), 4);
  for (std::size_t i = 0; i < shown; ++i) {
    os << "\n  [" << violations_[first_new + i].checker << "] "
       << violations_[first_new + i].detail;
  }
  if (found.size() > shown) os << "\n  ... and " << found.size() - shown << " more";
  throw InvariantViolationError(os.str());
}

std::unique_ptr<InvariantChecker> make_mass_conservation_checker(const InvariantConfig& config) {
  return std::make_unique<MassConservationChecker>(config);
}
std::unique_ptr<InvariantChecker> make_flow_antisymmetry_checker() {
  return std::make_unique<FlowAntisymmetryChecker>();
}
std::unique_ptr<InvariantChecker> make_pcf_handshake_checker() {
  return std::make_unique<PcfHandshakeChecker>();
}
std::unique_ptr<InvariantChecker> make_estimate_envelope_checker(const InvariantConfig& config) {
  return std::make_unique<EstimateEnvelopeChecker>(config);
}
std::unique_ptr<InvariantChecker> make_finite_state_checker() {
  return std::make_unique<FiniteStateChecker>();
}

}  // namespace pcf::sim
