// Binary serialization of the core value types (Mass, Packet) shared by the
// socket transport and runtime and the engine checkpoint layer
// (sim/checkpoint.cpp).
//
// Doubles travel as IEEE-754 bit patterns so a restored state is bit-exact —
// the checkpoint contract is bitwise-identical continuation, not approximate.
#pragma once

#include "core/reducer.hpp"
#include "support/binio.hpp"

namespace pcf::core {

inline void write_mass(BinaryWriter& w, const Mass& m) {
  w.u8(static_cast<std::uint8_t>(m.dim()));
  for (const double v : m.s) w.f64(v);
  w.f64(m.w);
}

[[nodiscard]] inline Mass read_mass(BinaryReader& r) {
  const std::uint8_t dim = r.u8();
  if (dim > kMaxDim) throw BinioError("state_io: mass dimension out of range");
  Mass m = Mass::zero(dim);
  for (std::size_t k = 0; k < dim; ++k) m.s[k] = r.f64();
  m.w = r.f64();
  return m;
}

inline void write_packet(BinaryWriter& w, const Packet& p) {
  write_mass(w, p.a);
  write_mass(w, p.b);
  w.u8(p.active_slot);
  w.u64(p.role_count);
}

[[nodiscard]] inline Packet read_packet(BinaryReader& r) {
  Packet p;
  p.a = read_mass(r);
  p.b = read_mass(r);
  p.active_slot = r.u8();
  p.role_count = r.u64();
  return p;
}

}  // namespace pcf::core
