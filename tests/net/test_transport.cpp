// Transport framing wall — mirrors the checkpoint codec tests: round-trip
// property over representative packets of every algorithm, plus a rejection
// wall (truncation, corruption, version skew, unknown kind, trailing bytes).
#include "net/transport.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/mass.hpp"
#include "support/binio.hpp"
#include "support/rng.hpp"

namespace pcf::net {
namespace {

using core::Mass;
using core::Packet;
using core::Values;

Mass random_mass(Rng& rng, std::size_t dim) {
  Values v;
  for (std::size_t k = 0; k < dim; ++k) v.push_back(rng.uniform(-1e6, 1e6));
  return Mass(std::move(v), rng.uniform(-4.0, 4.0));
}

/// Representative packets across every algorithm's field usage: push-sum/PF
/// (a only), PCF (a, b, active_slot, role_count), FU (a flow + b estimate),
/// corr (tree segments in a), plus degenerate shapes (zero mass, dim 0,
/// max dim, negative weights, denormals).
std::vector<Packet> representative_packets() {
  std::vector<Packet> packets;
  Rng rng(7);

  for (const std::size_t dim : {std::size_t{1}, std::size_t{3}, core::kMaxDim}) {
    Packet push_style;  // push-sum / push-flow: one mass pair
    push_style.a = random_mass(rng, dim);
    packets.push_back(push_style);

    Packet pcf;  // both slots + handshake bookkeeping
    pcf.a = random_mass(rng, dim);
    pcf.b = random_mass(rng, dim);
    pcf.active_slot = 2;
    pcf.role_count = 123456789ULL;
    packets.push_back(pcf);

    Packet fu;  // flow + sender estimate
    fu.a = random_mass(rng, dim);
    fu.b = random_mass(rng, dim);
    packets.push_back(fu);
  }

  Packet zero;  // dim-0 masses (pre-init shapes must still frame)
  packets.push_back(zero);

  Packet tiny;  // denormal + negative-zero payloads must survive bit-exactly
  tiny.a = Mass::scalar(5e-324, -0.0);
  tiny.b = Mass::scalar(-5e-324, 1.0);
  packets.push_back(tiny);

  return packets;
}

bool same_mass_bits(const Mass& x, const Mass& y) {
  if (x.dim() != y.dim()) return false;
  if (std::bit_cast<std::uint64_t>(x.w) != std::bit_cast<std::uint64_t>(y.w)) return false;
  for (std::size_t k = 0; k < x.dim(); ++k) {
    if (std::bit_cast<std::uint64_t>(x.s[k]) != std::bit_cast<std::uint64_t>(y.s[k])) {
      return false;
    }
  }
  return true;
}

TEST(Transport, DataFrameRoundTripsBitExactlyOverAllPacketShapes) {
  std::uint64_t seq = 0;
  for (const Packet& packet : representative_packets()) {
    DataFrame in;
    in.from = 17;
    in.to = 4093;
    in.seq = ++seq * 7919;
    in.packet = packet;

    const std::string bytes = encode_frame(in);
    const Frame out = decode_frame(bytes);
    ASSERT_EQ(out.kind, FrameKind::kData);
    EXPECT_EQ(out.data.from, in.from);
    EXPECT_EQ(out.data.to, in.to);
    EXPECT_EQ(out.data.seq, in.seq);
    EXPECT_TRUE(same_mass_bits(out.data.packet.a, packet.a));
    EXPECT_TRUE(same_mass_bits(out.data.packet.b, packet.b));
    EXPECT_EQ(out.data.packet.active_slot, packet.active_slot);
    EXPECT_EQ(out.data.packet.role_count, packet.role_count);
  }
}

TEST(Transport, HeartbeatFrameRoundTrips) {
  HeartbeatFrame in;
  in.shard = 11;
  in.epoch = 3;
  in.seq = 0xdeadbeefULL;
  const Frame out = decode_frame(encode_frame(in));
  ASSERT_EQ(out.kind, FrameKind::kHeartbeat);
  EXPECT_EQ(out.heartbeat.shard, 11u);
  EXPECT_EQ(out.heartbeat.epoch, 3u);
  EXPECT_EQ(out.heartbeat.seq, 0xdeadbeefULL);
}

std::string hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<std::uint8_t>(c);
    out += kDigits[b >> 4];
    out += kDigits[b & 0xfU];
  }
  return out;
}

TEST(Transport, FrameBytesArePinned) {
  // Length and FNV-1a of encode_frame for every representative packet shape,
  // plus the whole bytes of two heartbeats. A changed pin means the frame
  // layout drifted: bump kTransportVersion (a peer must refuse the old
  // layout, not misread it) and re-pin.
  struct Pin {
    std::size_t size;
    std::uint64_t hash;
  };
  const Pin data_pins[] = {
      {68, 0x01c5140e6ea90da3ULL},
      {76, 0x14ea891c9bb9081aULL},
      {76, 0x6c21a87d4a8e421bULL},
      {84, 0x3048aeea621c219aULL},
      {108, 0x81d6dec78781dde0ULL},
      {108, 0x9181c68356234001ULL},
      {188, 0x0079baa142f11774ULL},
      {316, 0x9054281b48dd5fe5ULL},
      {316, 0xf55b701919a0c728ULL},
      {60, 0x3cef7c2be5fbda56ULL},
      {76, 0xdad470beac305c2eULL},
  };
  const std::vector<Packet> packets = representative_packets();
  ASSERT_EQ(packets.size(), std::size(data_pins));
  for (std::size_t i = 0; i < packets.size(); ++i) {
    DataFrame frame;
    frame.from = static_cast<NodeId>(17 + i);
    frame.to = 4093;
    frame.seq = (i + 1) * 7919;
    frame.packet = packets[i];
    const std::string bytes = encode_frame(frame);
    EXPECT_EQ(bytes.size(), data_pins[i].size) << "packet " << i;
    EXPECT_EQ(fnv1a(bytes), data_pins[i].hash) << "packet " << i;
  }

  EXPECT_EQ(hex(encode_frame(HeartbeatFrame{})),
            "50434644010000000200000000000000000000000000000000555890d8b6b535a0");
  HeartbeatFrame beacon;
  beacon.shard = 11;
  beacon.epoch = 3;
  beacon.seq = 0xdeadbeefULL;
  EXPECT_EQ(hex(encode_frame(beacon)),
            "5043464401000000020b00000003000000efbeadde000000008325e81d33efe968");
}

TEST(Transport, EncodingIsDeterministic) {
  DataFrame frame;
  frame.from = 1;
  frame.to = 2;
  frame.seq = 3;
  frame.packet.a = Mass::scalar(1.5, 1.0);
  EXPECT_EQ(encode_frame(frame), encode_frame(frame));
}

TEST(Transport, TruncationAtEveryLengthIsRejected) {
  DataFrame frame;
  frame.from = 9;
  frame.to = 10;
  frame.seq = 42;
  frame.packet.a = Mass::scalar(2.0, 1.0);
  frame.packet.b = Mass::scalar(-2.0, -1.0);
  const std::string bytes = encode_frame(frame);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW((void)decode_frame(std::string_view(bytes).substr(0, len)), TransportError)
        << "length " << len;
  }
}

TEST(Transport, Everysingle_ByteCorruptionIsRejected) {
  HeartbeatFrame frame;
  frame.shard = 5;
  frame.epoch = 1;
  frame.seq = 99;
  const std::string bytes = encode_frame(frame);
  // Flipping any bit anywhere — header, body or trailer — must be caught by
  // the checksum (or, for trailer flips, by the mismatch it creates).
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x40);
    EXPECT_THROW((void)decode_frame(corrupt), TransportError) << "byte " << i;
  }
}

TEST(Transport, TrailingBytesAreRejected) {
  HeartbeatFrame frame;
  const std::string bytes = encode_frame(frame) + std::string("x");
  EXPECT_THROW((void)decode_frame(bytes), TransportError);
}

/// Re-seals a tampered frame with a valid checksum, isolating the semantic
/// checks (magic, version, kind) from the corruption check.
std::string reseal(std::string bytes, std::size_t index, char value) {
  bytes[index] = value;
  bytes.resize(bytes.size() - kSealBytes);
  return seal(std::move(bytes));
}

TEST(Transport, VersionSkewIsRefusedWithDistinctMessage) {
  const std::string bytes = encode_frame(HeartbeatFrame{});
  const std::string skewed = reseal(bytes, kFrameMagic.size(), 99);  // version LSB
  try {
    (void)decode_frame(skewed);
    FAIL() << "version skew accepted";
  } catch (const TransportError& e) {
    EXPECT_NE(std::string_view(e.what()).find("version skew"), std::string_view::npos);
  }
}

TEST(Transport, BadMagicIsRefused) {
  const std::string bytes = encode_frame(HeartbeatFrame{});
  const std::string alien = reseal(bytes, 0, 'X');
  try {
    (void)decode_frame(alien);
    FAIL() << "bad magic accepted";
  } catch (const TransportError& e) {
    EXPECT_NE(std::string_view(e.what()).find("magic"), std::string_view::npos);
  }
}

TEST(Transport, UnknownFrameKindIsRefused) {
  const std::string bytes = encode_frame(HeartbeatFrame{});
  const std::string unknown = reseal(bytes, kFrameMagic.size() + 4, 77);  // kind byte
  EXPECT_THROW((void)decode_frame(unknown), TransportError);
}

TEST(Transport, OversizedMassDimensionInsidePacketIsRefused) {
  DataFrame frame;
  frame.packet.a = Mass::scalar(1.0, 1.0);
  std::string bytes = encode_frame(frame);
  // The packet body starts after magic+version+kind+from+to+seq; its first
  // byte is mass a's dimension. Blow it past kMaxDim and re-seal: the frame
  // is "intact" per checksum but semantically malformed.
  const std::size_t dim_index = kFrameMagic.size() + 4 + 1 + 4 + 4 + 8;
  const std::string malformed =
      reseal(bytes, dim_index, static_cast<char>(core::kMaxDim + 1));
  EXPECT_THROW((void)decode_frame(malformed), TransportError);
}

TEST(TransportFuzz, ResealedMutationsThrowOrReencodeExactly) {
  // Seeded byte flips, truncations and insertions into the body of data
  // frames of every packet shape and of heartbeats, re-sealed so that they
  // pass the checksum and reach the field lists. Each must be refused with
  // TransportError (any other exception fails the test) or decode to a frame
  // that encodes back to exactly the same bytes.
  std::vector<std::string> frames;
  std::uint64_t seq = 0;
  for (const Packet& packet : representative_packets()) {
    DataFrame frame;
    frame.from = 3;
    frame.to = 1 << 20;
    frame.seq = ++seq;
    frame.packet = packet;
    frames.push_back(encode_frame(frame));
  }
  frames.push_back(encode_frame(HeartbeatFrame{}));
  frames.push_back(encode_frame(HeartbeatFrame{7, 2, 0xfeedULL}));

  Rng rng(0xf0220);
  std::size_t decoded = 0;
  std::size_t refused = 0;
  for (const std::string& frame : frames) {
    const std::string body = frame.substr(0, frame.size() - kSealBytes);
    for (int attempt = 0; attempt < 300; ++attempt) {
      std::string mutated = body;
      switch (rng.below(3)) {
        case 0:
          for (std::uint64_t n = 1 + rng.below(3); n > 0; --n) {
            mutated[rng.below(mutated.size())] ^= static_cast<char>(1 + rng.below(255));
          }
          break;
        case 1:
          mutated.resize(rng.below(mutated.size()));
          break;
        default:
          mutated.insert(rng.below(mutated.size() + 1), 1, static_cast<char>(rng.below(256)));
          break;
      }
      const std::string sealed = seal(mutated);
      try {
        const Frame out = decode_frame(sealed);
        const std::string again = out.kind == FrameKind::kData ? encode_frame(out.data)
                                                               : encode_frame(out.heartbeat);
        EXPECT_EQ(again, sealed) << "attempt " << attempt;
        ++decoded;
      } catch (const TransportError&) {
        ++refused;
      }
    }
  }
  // Both outcomes occur: payload flips decode, header and length damage is
  // refused.
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(refused, 0u);
}

}  // namespace
}  // namespace pcf::net
