// The one strict number parser for untrusted text: command-line flags
// (core/cli.hpp), the plan_server wire protocol (svc/plan_protocol.hpp
// and the admission-deadline peek) and tcp:// store endpoints.
//
// Integers are plain decimal digits and nothing else — no sign,
// whitespace, 0x prefix or suffix, all of which strtoul tolerates — so
// "64k" or "+5" is an error, never a silently truncated number. Overflow
// is detected, not saturated.
#pragma once

#include <cstdint>
#include <limits>
#include <string_view>
#include <type_traits>

namespace cms {

enum class NumberParse : std::uint8_t {
  kOk,
  kMalformed,   // empty, or anything but the accepted syntax
  kOutOfRange,  // well-formed but above the maximum
};

/// Parse plain decimal `text` into `out` (untouched unless kOk). Values
/// above `max` or above what T holds are kOutOfRange; a malformed
/// character anywhere wins over a too-large value.
template <class T>
NumberParse parse_decimal(std::string_view text, T& out,
                          std::uint64_t max = std::numeric_limits<T>::max()) {
  static_assert(std::is_unsigned_v<T>);
  if (text.empty()) return NumberParse::kMalformed;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t n = 0;
  bool overflow = false;
  for (const char c : text) {
    if (c < '0' || c > '9') return NumberParse::kMalformed;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    overflow = overflow || n > (kMax - digit) / 10;
    n = n * 10 + digit;
  }
  if (overflow || n > max || n > std::numeric_limits<T>::max())
    return NumberParse::kOutOfRange;
  out = static_cast<T>(n);
  return NumberParse::kOk;
}

/// Parse a finite, non-negative double (std::from_chars syntax: no sign,
/// whitespace or hex; the whole text is consumed) into `out` (untouched
/// unless kOk). "nan", "inf" and "-1" are malformed; "1e999" and values
/// above `max` are kOutOfRange.
NumberParse parse_nonneg_double(
    std::string_view text, double& out,
    double max = std::numeric_limits<double>::max());

}  // namespace cms
