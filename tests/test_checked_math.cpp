// Overflow-checked arithmetic (common/checked_math.hpp).
#include "common/checked_math.hpp"

#include <gtest/gtest.h>

namespace pp {
namespace {

TEST(CheckedMath, ProductsThatFitAreExact) {
  EXPECT_EQ(checked_mul(0, ~u64{0}), 0u);
  EXPECT_EQ(checked_mul(1, ~u64{0}), ~u64{0});
  EXPECT_EQ(checked_mul(u64{1} << 32, (u64{1} << 32) - 1),
            (u64{1} << 63) + ((u64{1} << 63) - (u64{1} << 32)));
  EXPECT_EQ(checked_mul(20, 128, 128, 128), u64{20} * 128 * 128 * 128);
}

TEST(CheckedMath, OverflowAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(checked_mul(u64{1} << 32, u64{1} << 32),
               "u64 product overflows");
  EXPECT_DEATH(checked_mul(2, (u64{1} << 63)), "u64 product overflows");
  // The benches' 20 n^3 budget fits up to n = 973,411 and wraps from
  // 973,412 on, where only the last partial product overflows.
  const u64 n = 973412;
  EXPECT_DEATH(checked_mul(20, n, n, n), "u64 product overflows");
  EXPECT_EQ(checked_mul(20, n - 1, n - 1, n - 1),
            u64{20} * (n - 1) * (n - 1) * (n - 1));
}

}  // namespace
}  // namespace pp
