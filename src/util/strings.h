// Small string helpers shared across modules.
#ifndef TRANCE_UTIL_STRINGS_H_
#define TRANCE_UTIL_STRINGS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace trance {

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, const std::string& sep);

/// Fixed-point formatting with `digits` decimals.
std::string FormatDouble(double v, int digits = 2);

/// Human-readable byte count ("1.2 MB").
std::string FormatBytes(uint64_t bytes);

}  // namespace trance

#endif  // TRANCE_UTIL_STRINGS_H_
