// Counter-block tests: encode/decode, Eq. (1)/(2) parent values, and the
// monotonicity property of the Steins skip-increment (paper §III-B).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "sit/counter_block.hpp"

namespace steins {
namespace {

TEST(GeneralCounterBlock, EncodeDecodeRoundTrip) {
  GeneralCounterBlock cb;
  for (std::size_t i = 0; i < cb.counters.size(); ++i) {
    cb.counters[i] = (0x00abcdef12345678ULL * (i + 1)) & kCounter56Mask;
  }
  EXPECT_EQ(GeneralCounterBlock::decode(cb.encode()), cb);
}

TEST(GeneralCounterBlock, ParentValueIsSumMod56) {
  GeneralCounterBlock cb;
  cb.counters = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_EQ(cb.parent_value(), 36u);
  cb.counters = {kCounter56Mask, 1, 0, 0, 0, 0, 0, 0};
  EXPECT_EQ(cb.parent_value(), 0u);  // wraps mod 2^56
}

TEST(GeneralCounterBlock, IncrementWrapsAt56Bits) {
  GeneralCounterBlock cb;
  cb.counters[3] = kCounter56Mask;
  cb.increment(3);
  EXPECT_EQ(cb.counters[3], 0u);
}

TEST(SplitCounterBlock, EncodeDecodeRoundTrip) {
  SplitCounterBlock cb;
  cb.major = 0x1122334455667788ULL;
  for (std::size_t i = 0; i < cb.minors.size(); ++i) {
    cb.minors[i] = static_cast<std::uint8_t>((i * 7) % kMinorMax);
  }
  EXPECT_EQ(SplitCounterBlock::decode(cb.encode()), cb);
}

TEST(SplitCounterBlock, EncodeIs56Bytes) {
  SplitCounterBlock cb;
  cb.minors.fill(63);
  cb.major = ~0ULL;
  const NodePayload p = cb.encode();
  EXPECT_EQ(p.size(), 56u);
  EXPECT_EQ(SplitCounterBlock::decode(p), cb);
}

// Every bit of a 56-byte payload belongs to exactly one counter, so
// decoding and re-encoding any image returns it unchanged: the tree checker
// MACs a stored image's prefix without decoding it.
TEST(CounterBlockEncoding, DecodeEncodeIsIdentityOnAnyPayload) {
  Xoshiro256 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    NodePayload p{};
    for (auto& b : p) b = static_cast<std::uint8_t>(rng.next());
    EXPECT_EQ(GeneralCounterBlock::decode(p).encode(), p);
    EXPECT_EQ(SplitCounterBlock::decode(p).encode(), p);
  }
}

TEST(SplitCounterBlock, ParentValueWeightsMajor) {
  SplitCounterBlock cb;
  cb.major = 3;
  cb.minors[0] = 5;
  cb.minors[63] = 7;
  EXPECT_EQ(cb.parent_value(), 3 * 64 + 5 + 7u);
}

TEST(SplitCounterBlock, SkipIncrementOverflowResetsMinors) {
  SplitCounterBlock cb;
  cb.minors[2] = kMinorMax - 1;
  cb.minors[5] = 10;
  const auto r = cb.increment_skip(2);
  EXPECT_TRUE(r.overflowed);
  EXPECT_EQ(cb.minors[2], 0u);
  EXPECT_EQ(cb.minors[5], 0u);
  // sum before reset = 63 + 10 + 1 (the triggering write) = 74 -> ceil(74/64) = 2.
  EXPECT_EQ(r.major_delta, 2u);
  EXPECT_EQ(cb.major, 2u);
}

TEST(SplitCounterBlock, PlainIncrementMajorDeltaIsOne) {
  SplitCounterBlock cb;
  cb.minors[0] = kMinorMax - 1;
  cb.minors[1] = 50;
  const auto r = cb.increment_plain(0);
  EXPECT_TRUE(r.overflowed);
  EXPECT_EQ(r.major_delta, 1u);
  EXPECT_EQ(cb.major, 1u);
}

// Property: under any sequence of skip-increments, the generated parent
// value (Eq. 2) is strictly monotonically increasing — the core requirement
// of the Steins counter-generation scheme (§III-B1).
class SkipIncrementMonotone : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SkipIncrementMonotone, ParentValueNeverDecreases) {
  Xoshiro256 rng(GetParam());
  SplitCounterBlock cb;
  std::uint64_t prev = cb.parent_value();
  for (int step = 0; step < 20000; ++step) {
    const std::size_t slot = static_cast<std::size_t>(rng.below(kSplitArity));
    cb.increment_skip(slot);
    const std::uint64_t cur = cb.parent_value();
    ASSERT_GT(cur, prev) << "step " << step << " slot " << slot;
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SkipIncrementMonotone,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// Property: skip-increment advances the parent value by at least as much as
// the plain scheme would (it aligns up), and overflow aligns the parent
// value to a multiple of 64.
TEST(SplitCounterBlock, OverflowAlignsParentValueUp) {
  Xoshiro256 rng(99);
  SplitCounterBlock cb;
  for (int step = 0; step < 5000; ++step) {
    const std::size_t slot = static_cast<std::size_t>(rng.below(kSplitArity));
    const std::uint64_t before = cb.parent_value();
    const auto r = cb.increment_skip(slot);
    if (r.overflowed) {
      EXPECT_EQ(cb.parent_value() % kMinorMax, 0u);
      EXPECT_GE(cb.parent_value(), before + 1);
    } else {
      EXPECT_EQ(cb.parent_value(), before + 1);
    }
  }
}

// Property: hammering one minor (the adversarial case of §III-B2) at most
// doubles the parent value versus the write count.
TEST(SplitCounterBlock, SkipIncrementOverheadBounded) {
  SplitCounterBlock cb;
  const std::uint64_t writes = 100000;
  for (std::uint64_t i = 0; i < writes; ++i) cb.increment_skip(0);
  EXPECT_LE(cb.parent_value(), 2 * writes + kMinorMax);
}

}  // namespace
}  // namespace steins
