// Strict unsigned decimal parsing for every text surface that reads numbers
// from outside the program: CLI flags, serve requests, checkpoint journals
// and shard specs.
#ifndef SPECTREBENCH_SRC_UTIL_DECIMAL_H_
#define SPECTREBENCH_SRC_UTIL_DECIMAL_H_

#include <cstdint>
#include <string_view>

namespace specbench {

// Decimal digits only: no sign, no whitespace, no trailing garbage. A value
// past UINT64_MAX is rejected rather than wrapped.
inline bool ParseU64Strict(std::string_view text, uint64_t* out) {
  if (text.empty()) {
    return false;
  }
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') {
      return false;
    }
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) {
      return false;
    }
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_UTIL_DECIMAL_H_
