// Bounded reading of untrusted bytes: every binary loader walks its input
// through one ByteReader (a span, the name of its source and an offset).
// Every read is bounds-checked, counts are checked against the bytes left
// before anything is sized from them, and every failure is a CsbError
// reading "<name>@<offset>: <what>". write_pod is the writers' side.
#pragma once

#include <cstdint>
#include <cstring>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace csb {

class ByteReader {
 public:
  ByteReader(std::span<const std::uint8_t> bytes, std::string name)
      : bytes_(bytes), end_(bytes.size()), name_(std::move(name)) {}

  [[nodiscard]] std::uint64_t offset() const noexcept { return offset_; }
  [[nodiscard]] std::uint64_t remaining() const noexcept {
    return end_ - offset_;
  }

  /// One T, memcpy'd (unaligned input is fine).
  template <typename T>
  [[nodiscard]] T read() {
    static_assert(std::is_trivially_copyable_v<T>);
    require(1, sizeof(T));
    T value;
    std::memcpy(&value, bytes_.data() + offset_, sizeof(T));
    offset_ += sizeof(T);
    return value;
  }

  /// `count` consecutive Ts; `count` is checked before anything is
  /// allocated, and so that `count * sizeof(T)` cannot wrap.
  template <typename T>
  [[nodiscard]] std::vector<T> read_column(std::uint64_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    require(count, sizeof(T));
    std::vector<T> column(count);
    if (count > 0) {
      std::memcpy(column.data(), bytes_.data() + offset_, count * sizeof(T));
    }
    offset_ += count * sizeof(T);
    return column;
  }

  void skip(std::uint64_t bytes) {
    require(bytes, 1);
    offset_ += bytes;
  }

  /// The next `bytes` bytes as a reader of their own (its errors keep the
  /// offsets of the whole input); skips them here.
  [[nodiscard]] ByteReader sub(std::uint64_t bytes) {
    require(bytes, 1);
    ByteReader part = *this;
    part.end_ = offset_ + bytes;
    offset_ += bytes;
    return part;
  }

  /// Throws CsbError("<name>@<offset>: <what>") at the current offset, or
  /// at `offset` (the start of the record at fault, say).
  [[noreturn]] void fail(std::string_view what) const {
    fail_at(offset_, what);
  }
  [[noreturn]] void fail_at(std::uint64_t offset, std::string_view what) const;

 private:
  void require(std::uint64_t count, std::size_t width) const {
    if (count > remaining() / width) fail_short(count, width);
  }
  [[noreturn]] void fail_short(std::uint64_t count, std::size_t width) const;

  std::span<const std::uint8_t> bytes_;
  std::uint64_t offset_ = 0;
  std::uint64_t end_;
  std::string name_;
};

template <typename T>
void write_pod(std::ostream& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&value), sizeof value);
}

/// The whole content of a regular file; throws CsbError naming `path`.
std::vector<std::uint8_t> read_file(const std::string& path);

/// The bytes of in-memory input, e.g. a serialized stringstream.
inline std::span<const std::uint8_t> byte_span(std::string_view text) {
  return {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()};
}

}  // namespace csb
