#include "support/binio.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <string_view>

namespace pcf {
namespace {

TEST(Fnv1a, KeepsTheProjectOffsetBasis) {
  // The offset basis is 1469598103934665603, one digit short of the published
  // 14695981039346656037. Every pinned hash, checksum trailer and compat hash
  // was made with it, so these values are pinned rather than the published
  // FNV-1a test vectors.
  EXPECT_EQ(fnv1a(""), 1469598103934665603ULL);
  EXPECT_EQ(fnv1a("a"), 0x44bd8ad473cd9906ULL);
  EXPECT_EQ(fnv1a("foobar"), 0x88fad7c0a8ff07f2ULL);
}

TEST(Fnv1a, WordsAndDoublesHashLikeTheirWrittenBytes) {
  BinaryWriter w;
  w.u64(0x0123456789abcdefULL);
  w.f64(-2.5);
  w.raw("xyz", 3);
  Fnv1a h;
  h.add(0x0123456789abcdefULL).add_bits(-2.5).bytes("xyz");
  EXPECT_EQ(h.value(), fnv1a(w.buffer()));
}

TEST(Seal, AppendsTheLittleEndianChecksumOfTheBody) {
  const std::string sealed = seal("payload");
  ASSERT_EQ(sealed.size(), 7 + kSealBytes);
  BinaryReader trailer(std::string_view(sealed).substr(7));
  EXPECT_EQ(trailer.u64(), fnv1a("payload"));
  EXPECT_EQ(unseal(sealed), std::optional<std::string_view>("payload"));
  EXPECT_EQ(unseal(seal("")), std::optional<std::string_view>(""));
}

TEST(Seal, UnsealRefusesShortAndDamagedBlobs) {
  const std::string sealed = seal("payload");
  for (std::size_t len = 0; len < sealed.size(); ++len) {
    EXPECT_FALSE(unseal(std::string_view(sealed).substr(0, len))) << "length " << len;
  }
  for (std::size_t i = 0; i < sealed.size(); ++i) {
    std::string damaged = sealed;
    damaged[i] = static_cast<char>(damaged[i] ^ 0x10);
    EXPECT_FALSE(unseal(damaged)) << "byte " << i;
  }
}

}  // namespace
}  // namespace pcf
