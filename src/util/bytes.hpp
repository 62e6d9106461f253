#pragma once

// Little-endian byte codec shared by every serialized image (WAL frames,
// checkpoints, serve state, sketches): appenders for the writers and one
// bounds-checked cursor for the readers, so a hostile length or count can
// never walk a decoder off the end of its buffer.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace tl::util {

inline void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}
inline void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  for (int i = 0; i < 2; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}
inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}
inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/// Reads little-endian fields front to back. A read past the end throws
/// std::runtime_error("<context>: truncated input"); fail() throws the same
/// type for the caller's own structural checks.
class ByteReader {
 public:
  ByteReader(std::span<const std::uint8_t> bytes, const char* context,
             std::size_t pos = 0) noexcept
      : bytes_(bytes), context_(context), pos_(pos) {}

  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error{std::string{context_} + ": " + why};
  }

  std::size_t pos() const noexcept { return pos_; }
  std::size_t remaining() const noexcept {
    return pos_ < bytes_.size() ? bytes_.size() - pos_ : 0;
  }

  std::uint8_t u8() { return static_cast<std::uint8_t>(le(1)); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(le(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(le(4)); }
  std::uint64_t u64() { return le(8); }

  /// Everything not read yet, for a nested decoder that reports how much
  /// it consumed (then take() that much).
  std::span<const std::uint8_t> rest() const noexcept {
    return bytes_.subspan(bytes_.size() - remaining());
  }

  /// The next `n` bytes as a view into the input.
  std::span<const std::uint8_t> take(std::size_t n) {
    need(n);
    const auto view = bytes_.subspan(pos_, n);
    pos_ += n;
    return view;
  }

 private:
  void need(std::size_t n) const {
    if (n > remaining()) fail("truncated input");
  }
  std::uint64_t le(std::size_t n) {
    need(n);
    std::uint64_t v = 0;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&v, bytes_.data() + pos_, n);  // one load once inlined
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        v |= static_cast<std::uint64_t>(bytes_[pos_ + i]) << (8 * i);
      }
    }
    pos_ += n;
    return v;
  }

  std::span<const std::uint8_t> bytes_;
  const char* context_;
  std::size_t pos_;
};

}  // namespace tl::util
