#include "net/link_set.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace pcf::net {

LinkSet::LinkSet(Topology topology)
    : topology_(std::move(topology)), flags_(topology_.offsets().back(), 0) {}

std::size_t LinkSet::edge_index(NodeId a, NodeId b) const noexcept {
  if (a >= topology_.size()) return kNoEdge;
  const auto nb = topology_.neighbors(a);
  const auto it = std::lower_bound(nb.begin(), nb.end(), b);
  if (it == nb.end() || *it != b) return kNoEdge;
  return topology_.offsets()[a] + static_cast<std::size_t>(it - nb.begin());
}

std::pair<std::size_t, std::size_t> LinkSet::checked_edge(NodeId a, NodeId b) const {
  const std::size_t ab = edge_index(a, b);
  PCF_CHECK_MSG(ab != kNoEdge, "LinkSet: no link " << a << "-" << b << " in topology");
  return {ab, edge_index(b, a)};
}

bool LinkSet::insert(NodeId a, NodeId b) {
  const auto [ab, ba] = checked_edge(a, b);
  if (flags_[ab] != 0) return false;
  flags_[ab] = 1;
  flags_[ba] = 1;
  ++count_;
  return true;
}

std::size_t LinkSet::erase(NodeId a, NodeId b) {
  const auto [ab, ba] = checked_edge(a, b);
  if (flags_[ab] == 0) return 0;
  flags_[ab] = 0;
  flags_[ba] = 0;
  --count_;
  return 1;
}

void LinkSet::clear() noexcept {
  std::fill(flags_.begin(), flags_.end(), std::uint8_t{0});
  count_ = 0;
}

void LinkSet::const_iterator::settle() {
  const std::size_t end = set_->flags_.size();
  if (left_ == 0) {
    edge_ = end;
    return;
  }
  // Each member is flagged in both CSR rows; yield it from the lower
  // endpoint's row, whose sorted neighbors give (min, max) order.
  const auto offsets = set_->topology_.offsets();
  for (; edge_ < end; ++edge_) {
    while (edge_ >= offsets[node_ + 1]) ++node_;
    if (set_->flags_[edge_] != 0 &&
        set_->topology_.neighbors(node_)[edge_ - offsets[node_]] > node_) {
      return;
    }
  }
}

}  // namespace pcf::net
