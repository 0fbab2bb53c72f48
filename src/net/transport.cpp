#include "net/transport.hpp"

#include <optional>
#include <string>

#include "core/state_io.hpp"
#include "support/binio.hpp"

namespace pcf::net {

namespace {

// Field lists (support/binio.hpp): encode_frame runs them with a
// BinaryWriter, decode_frame with a BinaryReader.

/// The header every frame shares: magic, version, kind.
template <class Io>
void header_fields(Io& io, std::uint8_t& kind) {
  io.tag(kFrameMagic, "bad frame magic");
  std::uint32_t version = kTransportVersion;
  io.field(version);
  if constexpr (Io::kReading) {
    if (version != kTransportVersion) {
      throw TransportError("transport: version skew (frame v" + std::to_string(version) +
                           ", this build speaks v" + std::to_string(kTransportVersion) + ")");
    }
  }
  io.field(kind);
}

template <class Io, class F>
void data_fields(Io& io, F& frame) {
  io.field(frame.from);
  io.field(frame.to);
  io.field(frame.seq);
  core::packet_fields(io, frame.packet);
}

template <class Io, class F>
void heartbeat_fields(Io& io, F& frame) {
  io.field(frame.shard);
  io.field(frame.epoch);
  io.field(frame.seq);
}

}  // namespace

std::string encode_frame(const DataFrame& frame) {
  BinaryWriter w;
  auto kind = static_cast<std::uint8_t>(FrameKind::kData);
  header_fields(w, kind);
  data_fields(w, frame);
  return seal(w.take());
}

std::string encode_frame(const HeartbeatFrame& frame) {
  BinaryWriter w;
  auto kind = static_cast<std::uint8_t>(FrameKind::kHeartbeat);
  header_fields(w, kind);
  heartbeat_fields(w, frame);
  return seal(w.take());
}

Frame decode_frame(std::string_view bytes) {
  // Checksum first: it covers the header too, so a bit flip anywhere —
  // including inside the magic or version — is reported as corruption, and
  // only an intact frame's version field is trusted for the skew check.
  if (bytes.size() < kFrameMagic.size() + 4 + 1 + kSealBytes) {
    throw TransportError("transport: frame too short");
  }
  const std::optional<std::string_view> body = unseal(bytes);
  if (!body) throw TransportError("transport: checksum mismatch");
  try {
    BinaryReader r(*body);
    Frame frame;
    std::uint8_t kind = 0;
    header_fields(r, kind);
    switch (kind) {
      case static_cast<std::uint8_t>(FrameKind::kData):
        frame.kind = FrameKind::kData;
        data_fields(r, frame.data);
        break;
      case static_cast<std::uint8_t>(FrameKind::kHeartbeat):
        frame.kind = FrameKind::kHeartbeat;
        heartbeat_fields(r, frame.heartbeat);
        break;
      default:
        throw TransportError("transport: unknown frame kind");
    }
    r.expect_end();
    return frame;
  } catch (const BinioError& e) {
    // Bad magic, truncation or malformed nested fields (e.g. packet mass
    // dimension).
    throw TransportError(std::string("transport: ") + e.what());
  }
}

}  // namespace pcf::net
