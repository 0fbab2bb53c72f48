// Deterministic binary serialization primitives for the checkpoint layer.
//
// Checkpoints must be byte-identical across platforms and compilers (CI
// compares them and tests pin a golden format hash), so every integer is
// written little-endian byte by byte and every double travels as its IEEE-754
// bit pattern — never through locale- or precision-dependent text formatting.
// The reader is defensive: checkpoints come from disk and may be truncated or
// corrupted, so every read is bounds-checked and throws BinioError instead of
// reading past the end (the checkpoint layer converts that into a rejected
// restore, see sim/checkpoint.hpp).
//
// Field vocabulary. A persisted structure lists its fields ONCE, as a
// `template <class Io> ... (Io& io, ...)` function: save runs the list with a
// BinaryWriter, restore with a BinaryReader, so the two directions cannot
// drift apart (DESIGN.md §8). Both classes provide, with the same meaning:
//   kReading               false for the writer, true for the reader
//   field(x)               one scalar: an unsigned integer at its own width
//                          (1, 4 or 8 bytes), a double as its IEEE-754 bits,
//                          a bool as a 0/1 byte, a string as a length-prefixed
//                          byte string (read back as a view into the input)
//   flag(x)                a uint8 0/1 flag; the reader maps nonzero to 1
//   row(p, n)              n doubles at p
//   tag(bytes, what)       fixed bytes, e.g. a magic; the reader requires them
//   length(n, min)         an element count; the reader bounds it by `min`
//                          bytes per element still to come
//   sequence(v, min, each) length(v.size(), min), then each(element); the
//                          reader clears v and appends value-initialized
//                          elements
//   mapping(m, min, each)  the same for a std::map, each(key, value); the
//                          reader refuses a repeated key
//   nested(each)           a length-prefixed sub-blob holding each(inner io);
//                          the reader requires it consumed exactly
//   require(ok, what)      a reader-only check: throws BinioError(what) when
//                          !ok; the writer ignores it
// Reader-only steps (rebuilding derived state) go under
// `if constexpr (Io::kReading)` in the same list.
//
// Checksum seal. A blob that travels (a transport frame, a socket runtime
// file) ends in an 8-byte little-endian FNV-1a of everything before it:
// seal() appends it, unseal() checks it and returns the body.
#pragma once

#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pcf {

/// Malformed or truncated binary input. Never indicates a programming error —
/// callers feed untrusted bytes and handle this as a rejected input.
class BinioError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace binio_detail {
/// Unsigned integers travel at their own width; bool is not one of them.
template <class T>
concept WireUnsigned = std::unsigned_integral<T> && !std::same_as<T, bool> &&
                       (sizeof(T) == 1 || sizeof(T) == 4 || sizeof(T) == 8);
}  // namespace binio_detail

/// Appends fixed-width little-endian fields to a growing byte buffer.
class BinaryWriter {
 public:
  static constexpr bool kReading = false;

  void u8(std::uint8_t v) { field(v); }
  void u32(std::uint32_t v) { field(v); }
  void u64(std::uint64_t v) { field(v); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  void raw(const void* data, std::size_t size) {
    buf_.append(static_cast<const char*>(data), size);
  }

  /// Length-prefixed byte string.
  void str(std::string_view s) {
    u64(s.size());
    buf_.append(s.data(), s.size());
  }

  // ---- field vocabulary (see the file comment) ----

  template <binio_detail::WireUnsigned T>
  void field(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xffU));
    }
  }
  void field(bool v) { boolean(v); }
  void field(double v) { f64(v); }
  void field(std::string_view v) { str(v); }
  void flag(std::uint8_t v) { u8(v); }

  void row(const double* r, std::size_t n) {
    for (std::size_t k = 0; k < n; ++k) f64(r[k]);
  }

  void tag(std::string_view bytes, const char* /*what*/) { raw(bytes.data(), bytes.size()); }

  void length(std::size_t n, std::size_t /*min_element_bytes*/) { u64(n); }

  template <class Seq, class Each>
  void sequence(const Seq& items, std::size_t min_element_bytes, Each&& each) {
    length(items.size(), min_element_bytes);
    for (const auto& item : items) each(item);
  }

  template <class Map, class Each>
  void mapping(const Map& entries, std::size_t min_entry_bytes, Each&& each) {
    length(entries.size(), min_entry_bytes);
    for (const auto& [key, value] : entries) each(key, value);
  }

  template <class Each>
  void nested(Each&& each) {
    BinaryWriter inner;
    each(inner);
    str(inner.buffer());
  }

  void require(bool /*ok*/, const char* /*what*/) const noexcept {}

  [[nodiscard]] const std::string& buffer() const noexcept { return buf_; }
  [[nodiscard]] std::string take() noexcept { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

 private:
  std::string buf_;
};

/// Cursor over a byte buffer; every read throws BinioError on truncation.
class BinaryReader {
 public:
  static constexpr bool kReading = true;

  explicit BinaryReader(std::string_view data) noexcept : data_(data) {}

  [[nodiscard]] std::uint8_t u8() { return read<std::uint8_t>(); }
  [[nodiscard]] std::uint32_t u32() { return read<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return read<std::uint64_t>(); }
  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }

  [[nodiscard]] bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) throw BinioError("binio: boolean byte out of range");
    return v != 0;
  }

  [[nodiscard]] std::string_view raw(std::size_t size) {
    need(size);
    const std::string_view out = data_.substr(pos_, size);
    pos_ += size;
    return out;
  }

  /// Length-prefixed byte string (see BinaryWriter::str).
  [[nodiscard]] std::string_view str() {
    const std::uint64_t size = u64();
    if (size > remaining()) throw BinioError("binio: string length exceeds input");
    return raw(static_cast<std::size_t>(size));
  }

  /// Bounds-checked element count for a sequence whose elements occupy at
  /// least `min_element_bytes` each — rejects counts a truncated or corrupted
  /// length prefix could not possibly satisfy before any allocation happens.
  [[nodiscard]] std::size_t count(std::size_t min_element_bytes) {
    const std::uint64_t n = u64();
    if (min_element_bytes > 0 && n > remaining() / min_element_bytes) {
      throw BinioError("binio: sequence count exceeds input");
    }
    return static_cast<std::size_t>(n);
  }

  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }

  // ---- field vocabulary (see the file comment) ----

  template <binio_detail::WireUnsigned T>
  void field(T& v) {
    v = read<T>();
  }
  void field(bool& v) { v = boolean(); }
  /// One element of a std::vector<bool> (its proxy reference).
  void field(std::vector<bool>::reference v) { v = boolean(); }
  void field(double& v) { v = f64(); }
  /// A view into the input: it lives as long as the input does.
  void field(std::string_view& v) { v = str(); }
  void flag(std::uint8_t& v) { v = u8() != 0 ? 1 : 0; }

  void row(double* r, std::size_t n) {
    for (std::size_t k = 0; k < n; ++k) r[k] = f64();
  }

  void tag(std::string_view bytes, const char* what) { require(raw(bytes.size()) == bytes, what); }

  void length(std::size_t& n, std::size_t min_element_bytes) { n = count(min_element_bytes); }

  template <class Seq, class Each>
  void sequence(Seq& items, std::size_t min_element_bytes, Each&& each) {
    const std::size_t n = count(min_element_bytes);
    items.clear();
    items.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      typename Seq::value_type item{};
      each(item);
      items.push_back(std::move(item));
    }
  }

  template <class Map, class Each>
  void mapping(Map& entries, std::size_t min_entry_bytes, Each&& each) {
    const std::size_t n = count(min_entry_bytes);
    entries.clear();
    for (std::size_t i = 0; i < n; ++i) {
      typename Map::key_type key{};
      typename Map::mapped_type value{};
      each(key, value);
      require(entries.emplace(std::move(key), std::move(value)).second, "binio: repeated map key");
    }
  }

  template <class Each>
  void nested(Each&& each) {
    BinaryReader inner(str());
    each(inner);
    inner.expect_end();
  }

  void require(bool ok, const char* what) const {
    if (!ok) throw BinioError(what);
  }

  /// Throws unless the input was consumed exactly — trailing bytes mean the
  /// buffer is not what the writer produced.
  void expect_end() const {
    if (pos_ != data_.size()) throw BinioError("binio: trailing bytes after payload");
  }

 private:
  void need(std::size_t n) const {
    if (n > remaining()) throw BinioError("binio: truncated input");
  }

  template <binio_detail::WireUnsigned T>
  [[nodiscard]] T read() {
    need(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      const auto byte = static_cast<std::uint8_t>(data_[pos_++]);
      v = static_cast<T>(v | (static_cast<T>(byte) << (8 * i)));
    }
    return v;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

/// 64-bit FNV-1a, fed incrementally: the one hash behind every checksum,
/// compatibility hash and state fingerprint. A word is fed as its eight
/// little-endian bytes and a double as its IEEE-754 bits, so a value hashes
/// like the bytes BinaryWriter writes for it. The offset basis is one digit
/// short of the published 14695981039346656037; every pinned hash and every
/// sealed blob depends on it, so it stays.
class Fnv1a {
 public:
  Fnv1a& bytes(std::string_view data) noexcept {
    for (const char c : data) byte(static_cast<std::uint8_t>(c));
    return *this;
  }
  Fnv1a& add(std::uint64_t v) noexcept {
    for (std::size_t i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
    return *this;
  }
  Fnv1a& add_bits(double v) noexcept { return add(std::bit_cast<std::uint64_t>(v)); }

  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  void byte(std::uint8_t b) noexcept {
    h_ ^= b;
    h_ *= 1099511628211ULL;
  }

  std::uint64_t h_ = 1469598103934665603ULL;
};

[[nodiscard]] inline std::uint64_t fnv1a(std::string_view data) noexcept {
  return Fnv1a().bytes(data).value();
}

/// Size of the checksum trailer seal() appends.
inline constexpr std::size_t kSealBytes = 8;

/// Appends the little-endian FNV-1a of `body` as its trailer.
[[nodiscard]] inline std::string seal(std::string body) {
  BinaryWriter trailer;
  trailer.u64(fnv1a(body));
  return std::move(body) + trailer.buffer();
}

/// The body of a sealed blob, or nullopt when the blob is shorter than the
/// trailer or the trailer does not match the body.
[[nodiscard]] inline std::optional<std::string_view> unseal(std::string_view sealed) {
  if (sealed.size() < kSealBytes) return std::nullopt;
  const std::string_view body = sealed.substr(0, sealed.size() - kSealBytes);
  BinaryReader trailer(sealed.substr(body.size()));
  if (trailer.u64() != fnv1a(body)) return std::nullopt;
  return body;
}

}  // namespace pcf
