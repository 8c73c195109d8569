#include "common/number.hpp"

#include <charconv>
#include <cmath>

namespace cms {

NumberParse parse_nonneg_double(std::string_view text, double& out,
                                double max) {
  double v = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ptr != end || ec == std::errc::invalid_argument ||
      !std::isfinite(v) || v < 0.0)
    return NumberParse::kMalformed;
  if (ec == std::errc::result_out_of_range || v > max)
    return NumberParse::kOutOfRange;
  out = v;
  return NumberParse::kOk;
}

}  // namespace cms
