// Little-endian binary encoding for state images (the daemon's household
// checkpoints, DESIGN.md §15) and the serve wire protocol's frames.
//
// ByteWriter appends fixed-width integers and raw IEEE-754 doubles to a
// byte buffer; ByteReader reads them back through a bounds-checked cursor
// that throws DataError on underrun instead of reading past the buffer.
// Doubles travel as their bit patterns, so a write/read round trip is exact
// by construction. Fields and arrays are copied as host bytes, which is
// why the format is defined on little-endian hosts only.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <istream>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "util/error.h"

namespace rlblh {

static_assert(std::endian::native == std::endian::little,
              "images and frames are little-endian; add byte swaps to port");

/// Appends little-endian fields to a caller-owned byte buffer: a
/// std::string (state images) or a std::vector<std::uint8_t> (frames).
template <typename Buffer>
class ByteWriter {
 public:
  explicit ByteWriter(Buffer& out) : out_(out) {}

  void u8(std::uint8_t v) { raw(&v, 1); }
  void u16(std::uint16_t v) { raw(&v, sizeof v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }
  void u64s(std::span<const std::uint64_t> v) { raw(v.data(), v.size_bytes()); }
  void f64s(std::span<const double> v) { raw(v.data(), v.size_bytes()); }
  void bytes(std::string_view v) { raw(v.data(), v.size()); }

 private:
  void raw(const void* data, std::size_t n) {
    const auto* bytes = static_cast<const typename Buffer::value_type*>(data);
    out_.insert(out_.end(), bytes, bytes + n);
  }

  Buffer& out_;
};

/// Bounds-checked little-endian cursor over a byte string. Every read
/// checks the remaining length first; `what` prefixes the error messages.
class ByteReader {
 public:
  ByteReader(std::string_view data, std::string what)
      : data_(data), what_(std::move(what)) {}

  std::uint8_t u8() { return fixed<std::uint8_t>(); }
  std::uint16_t u16() { return fixed<std::uint16_t>(); }
  std::uint32_t u32() { return fixed<std::uint32_t>(); }
  std::uint64_t u64() { return fixed<std::uint64_t>(); }
  double f64() { return fixed<double>(); }
  void u64s(std::span<std::uint64_t> out) { raw(out.data(), out.size_bytes()); }
  void f64s(std::span<double> out) { raw(out.data(), out.size_bytes()); }

  /// The next `n` bytes, as a view into the underlying data.
  std::string_view bytes(std::size_t n) {
    need(n);
    const std::string_view v = data_.substr(pos_, n);
    pos_ += n;
    return v;
  }

  /// Everything not read yet (consumes it).
  std::string_view rest() { return bytes(remaining()); }

  std::size_t remaining() const { return data_.size() - pos_; }

  /// Throws DataError when unread bytes remain.
  void expect_end() const {
    if (remaining() != 0) {
      throw DataError(what_ + ": " + std::to_string(remaining()) +
                      " trailing bytes");
    }
  }

  /// Throws DataError("<what>: <message>") — for field validation.
  [[noreturn]] void fail(const std::string& message) const {
    throw DataError(what_ + ": " + message);
  }

 private:
  template <typename T>
  T fixed() {
    T v;
    raw(&v, sizeof v);
    return v;
  }

  void need(std::size_t n) const {
    if (n > remaining()) {
      fail("truncated (need " + std::to_string(n) + " bytes at offset " +
           std::to_string(pos_) + ", " + std::to_string(remaining()) +
           " left)");
    }
  }

  void raw(void* out, std::size_t n) {
    need(n);
    if (n != 0) std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  std::string what_;
};

/// Reads `in` to its end.
inline std::string read_all(std::istream& in) {
  std::string out;
  // A string stream reports all of its bytes here: one allocation.
  const std::streamsize buffered = in.rdbuf()->in_avail();
  if (buffered > 0) out.reserve(static_cast<std::size_t>(buffered));
  char chunk[1 << 16];
  while (in.read(chunk, sizeof chunk) || in.gcount() > 0) {
    out.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  return out;
}

}  // namespace rlblh
