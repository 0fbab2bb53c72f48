#include "core/extrema.hpp"

#include <algorithm>

namespace pcf::core {

void ExtremaGossip::init(std::span<const NodeId> neighbors, Mass initial) {
  PCF_CHECK_MSG(!initialized_, "extrema gossip initialized twice");
  PCF_CHECK_MSG(!neighbors.empty(), "node needs at least one neighbor");
  PCF_CHECK_MSG(initial.dim() == 1, "extrema gossip takes a scalar sample");
  neighbors_.init(neighbors);
  min_ = initial.s[0];
  max_ = initial.s[0];
  initialized_ = true;
}

Mass ExtremaGossip::local_mass() const {
  PCF_CHECK_MSG(initialized_, "local_mass before init");
  return Mass(Values{min_, max_}, 1.0);
}

std::optional<ExtremaGossip::Message> ExtremaGossip::make_message(Rng& rng) {
  PCF_CHECK_MSG(initialized_, "make_message before init");
  const auto target = neighbors_.pick_live(rng);
  if (!target) return std::nullopt;
  return make_message_to(*target);
}

std::optional<ExtremaGossip::Message> ExtremaGossip::make_message_to(NodeId target) {
  PCF_CHECK_MSG(initialized_, "make_message before init");
  const auto slot = neighbors_.slot_of(target);
  if (!slot || !neighbors_.alive_at(*slot)) return std::nullopt;
  Message out;
  out.to = target;
  out.packet.a = local_mass();
  return out;
}

void ExtremaGossip::on_receive(NodeId from, const Packet& packet) {
  PCF_CHECK_MSG(initialized_, "on_receive before init");
  if (!neighbors_.slot_of(from)) return;
  if (packet.a.dim() != 2) return;  // corrupted beyond use
  // Monotone merge: duplicates and reordering are free.
  min_ = std::min(min_, packet.a.s[0]);
  max_ = std::max(max_, packet.a.s[1]);
}

void ExtremaGossip::update_data(const Mass& delta) {
  PCF_CHECK_MSG(initialized_, "update_data before init");
  PCF_CHECK_MSG(delta.dim() == 1, "extrema update takes a scalar sample");
  // A live data update is a NEW SAMPLE, merged monotonically. (A sample that
  // shrinks the range cannot take effect — inherent to min/max gossip.)
  min_ = std::min(min_, delta.s[0]);
  max_ = std::max(max_, delta.s[0]);
}

}  // namespace pcf::core
