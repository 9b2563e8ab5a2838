// Exact-or-reject unsigned arithmetic for the traffic-weighted counters.
//
// Pair weights (sim/traffic.h) are products of heavy-tailed masses and a
// scale, and the weighted counters multiply them by per-pair source counts
// before summing. Those products can exceed 2^64; a wrapped counter would
// be a silently wrong result. These helpers compute with the compiler's
// overflow builtins and throw std::overflow_error naming the counter and
// the limit instead. The target is written only on success.
#ifndef SBGP_UTIL_CHECKED_H
#define SBGP_UTIL_CHECKED_H

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace sbgp::util {

[[noreturn]] inline void throw_counter_overflow(std::string_view counter) {
  throw std::overflow_error(std::string(counter) +
                            ": weighted value exceeds the 2^64 - 1 limit of "
                            "an unsigned 64-bit counter");
}

/// acc += x * w, or std::overflow_error naming `counter` (acc unchanged).
template <typename Counter>
void add_scaled_checked(Counter& acc, Counter x, std::uint64_t w,
                        std::string_view counter) {
  static_assert(std::is_unsigned_v<Counter> &&
                sizeof(Counter) == sizeof(std::uint64_t));
  Counter product = 0;
  Counter sum = 0;
  if (__builtin_mul_overflow(x, w, &product) ||
      __builtin_add_overflow(acc, product, &sum)) {
    throw_counter_overflow(counter);
  }
  acc = sum;
}

}  // namespace sbgp::util

#endif  // SBGP_UTIL_CHECKED_H
