// Human-readable formatting helpers for harness and log output, and the
// one checked number parser every text reader uses.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace csb {

/// 1234567 -> "1,234,567".
std::string with_commas(std::uint64_t value);

/// 1536 -> "1.50 KiB"; 0 -> "0 B".
std::string human_bytes(std::uint64_t bytes);

/// 0.0123 -> "12.3 ms"; 90.5 -> "1m 30.5s".
std::string human_seconds(double seconds);

/// Compact scientific formatting with `digits` significant digits.
std::string sci(double value, int digits = 3);

/// Splits `line` at every `sep` into `fields` (cleared first), keeping
/// empty fields; the views point into `line`.
void split_fields(std::string_view line, char sep,
                  std::vector<std::string_view>& fields);

/// All of `text` as a T: an integer in `base` that fits T, or a finite
/// floating-point number. nullopt for anything else: "70000" as a u16,
/// "-1" as an unsigned, "12abc", "", "inf".
template <typename T>
[[nodiscard]] std::optional<T> parse_number(std::string_view text,
                                            int base = 10) {
  T value{};
  const char* end = text.data() + text.size();
  std::from_chars_result result;
  if constexpr (std::is_floating_point_v<T>) {
    result = std::from_chars(text.data(), end, value);
    if (result.ec == std::errc{} && !std::isfinite(value)) return std::nullopt;
  } else {
    result = std::from_chars(text.data(), end, value, base);
  }
  if (result.ec != std::errc{} || result.ptr != end) return std::nullopt;
  return value;
}

/// Throws CsbError("<source>:<line>: field '<field>': '<text>' is not
/// <expected>"), the error of every text loader.
[[noreturn]] void field_error(std::string_view source, std::uint64_t line,
                              std::string_view field, std::string_view text,
                              std::string_view expected);

/// parse_number for an integer field of a text file, or field_error.
template <typename T>
[[nodiscard]] T parse_field(std::string_view text, std::string_view source,
                            std::uint64_t line, std::string_view field) {
  if (const auto value = parse_number<T>(text)) return *value;
  field_error(source, line, field, text,
              "an integer in [0, " +
                  std::to_string(std::numeric_limits<T>::max()) + "]");
}

}  // namespace csb
