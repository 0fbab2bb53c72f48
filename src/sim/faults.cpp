#include "sim/faults.hpp"

#include <cstring>

#include "support/check.hpp"

namespace pcf::sim {

void validate_fault_plan(const FaultPlan& plan, const net::Topology& topology) {
  for (const auto& f : plan.link_failures) {
    PCF_CHECK_MSG(topology.has_edge(f.a, f.b),
                  "fault plan: no link " << f.a << "-" << f.b << " in topology");
  }
  for (const auto& c : plan.node_crashes) {
    PCF_CHECK_MSG(c.node < topology.size(), "fault plan: crash node out of range");
  }
  for (const auto& u : plan.data_updates) {
    PCF_CHECK_MSG(u.node < topology.size(), "fault plan: data update node out of range");
  }
  for (const auto& h : plan.link_heals) {
    PCF_CHECK_MSG(topology.has_edge(h.a, h.b),
                  "fault plan: no link " << h.a << "-" << h.b << " to heal in topology");
  }
  for (const auto& r : plan.node_rejoins) {
    PCF_CHECK_MSG(r.node < topology.size(), "fault plan: rejoin node out of range");
  }
  for (const auto& e : plan.false_detects) {
    PCF_CHECK_MSG(topology.has_edge(e.a, e.b),
                  "fault plan: no link " << e.a << "-" << e.b << " to falsely detect");
    PCF_CHECK_MSG(e.clear_delay >= 0.0, "fault plan: negative false-detect clear delay");
  }
}

void flip_random_bit(Packet& packet, Rng& rng, bool any_bit) {
  // Candidate doubles: all value components and weights of both masses.
  std::vector<double*> slots;
  slots.reserve(packet.a.dim() + packet.b.dim() + 2);
  for (auto& v : packet.a.s) slots.push_back(&v);
  slots.push_back(&packet.a.w);
  for (auto& v : packet.b.s) slots.push_back(&v);
  slots.push_back(&packet.b.w);

  double* victim = slots[static_cast<std::size_t>(rng.below(slots.size()))];
  // Mantissa bits 0..51 plus the sign bit 63 by default; exponent bits
  // (52..62) only when any_bit is requested.
  std::uint64_t bit_index;
  if (any_bit) {
    bit_index = rng.below(64);
  } else {
    bit_index = rng.below(53);
    if (bit_index == 52) bit_index = 63;  // map the 53rd choice to the sign bit
  }
  std::uint64_t bits;
  std::memcpy(&bits, victim, sizeof bits);
  bits ^= (std::uint64_t{1} << bit_index);
  std::memcpy(victim, &bits, sizeof bits);
}

}  // namespace pcf::sim
