// Checkpoint field lists of the core value types (Mass, Packet), shared by the
// socket transport and runtime and the engine checkpoint layer
// (sim/checkpoint.cpp). Each list runs with a BinaryWriter to save and a
// BinaryReader to restore (support/binio.hpp).
//
// Doubles travel as IEEE-754 bit patterns so a restored state is bit-exact —
// the checkpoint contract is bitwise-identical continuation, not approximate.
#pragma once

#include <cstdint>

#include "core/reducer.hpp"

namespace pcf::core {

/// u8 dimension, the components, then the weight.
template <class Io, class M>
void mass_fields(Io& io, M& m) {
  auto dim = static_cast<std::uint8_t>(m.dim());
  io.field(dim);
  io.require(dim <= kMaxDim, "state_io: mass dimension out of range");
  if constexpr (Io::kReading) m = Mass::zero(dim);
  for (auto& v : m.s) io.field(v);
  io.field(m.w);
}

template <class Io, class P>
void packet_fields(Io& io, P& p) {
  mass_fields(io, p.a);
  mass_fields(io, p.b);
  io.field(p.active_slot);
  io.field(p.role_count);
}

}  // namespace pcf::core
