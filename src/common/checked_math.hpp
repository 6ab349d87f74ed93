// Overflow-checked u64 arithmetic for values formed from user inputs
// (populations, budgets): a product past 2^64 - 1 aborts with a message
// instead of wrapping to a small, plausible-looking number.
#pragma once

#include "common/assert.hpp"
#include "common/types.hpp"

namespace pp {

/// a * b, or abort if the product does not fit a u64.
inline u64 checked_mul(u64 a, u64 b) {
  u64 product = 0;
  const bool wrapped = __builtin_mul_overflow(a, b, &product);
  PP_ASSERT_MSG(!wrapped, "u64 product overflows");
  return product;
}

/// a * b * c * ..., left to right, every partial product checked.
template <typename... More>
u64 checked_mul(u64 a, u64 b, u64 c, More... more) {
  return checked_mul(checked_mul(a, b), c, more...);
}

}  // namespace pp
