// Deterministic RNG and samplers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/rng.hpp"

namespace steins {
namespace {

TEST(SplitMix64, KnownSequence) {
  // SplitMix64 reference: seed 0 produces these first outputs.
  SplitMix64 sm(0);
  EXPECT_EQ(sm.next(), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(sm.next(), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(sm.next(), 0x06c45d188009454fULL);
}

TEST(Xoshiro256, DeterministicPerSeed) {
  Xoshiro256 a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    EXPECT_NE(va, c.next());  // overwhelmingly likely
  }
}

TEST(Xoshiro256, BelowStaysInRange) {
  Xoshiro256 rng(7);
  for (const std::uint64_t bound : {1ull, 2ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.below(bound), bound) << "bound " << bound;
    }
  }
}

TEST(Xoshiro256, UniformInUnitInterval) {
  Xoshiro256 rng(9);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Xoshiro256, BelowRoughlyUniform) {
  Xoshiro256 rng(11);
  std::vector<int> buckets(8, 0);
  const int n = 80000;
  for (int i = 0; i < n; ++i) ++buckets[rng.below(8)];
  for (const int b : buckets) {
    EXPECT_NEAR(static_cast<double>(b), n / 8.0, n * 0.01);
  }
}

TEST(ZipfSampler, SkewsTowardLowRanks) {
  Xoshiro256 rng(5);
  ZipfSampler zipf(1000, 1.0);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 50000; ++i) ++counts[zipf.sample(rng)];
  EXPECT_GT(counts[0], counts[9] * 2);
  EXPECT_GT(counts[0], counts[99] * 10);
}

TEST(ZipfSampler, CoversWholeRange) {
  Xoshiro256 rng(6);
  ZipfSampler zipf(4, 0.5);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 10000; ++i) {
    const std::size_t s = zipf.sample(rng);
    ASSERT_LT(s, 4u);
    ++counts[s];
  }
  for (const int c : counts) EXPECT_GT(c, 0);
}

TEST(ZipfSampler, GuideTableMatchesFullRangeSearch) {
  // The guide table only narrows the search; every draw must equal the
  // first CDF entry >= u over the whole CDF (n - 1 when none is).
  struct Case {
    std::size_t n;
    double s;
  };
  for (const Case c : {Case{1, 0.99}, Case{7, 0.5}, Case{4096, 1.0},
                       Case{120000, 0.99}, Case{50001, 1.3}}) {
    const ZipfSampler zipf(c.n, c.s);
    const std::vector<double>& cdf = zipf.cdf();
    ASSERT_EQ(cdf.size(), c.n);
    Xoshiro256 rng(c.n * 31 + 7);
    Xoshiro256 ref_rng = rng;
    std::size_t mismatches = 0;
    for (int i = 0; i < 1'000'000; ++i) {
      const std::size_t got = zipf.sample(rng);
      const double u = ref_rng.uniform();
      const auto first = static_cast<std::size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      if (got != std::min(first, c.n - 1)) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0u) << "n=" << c.n << " s=" << c.s;
  }
}

}  // namespace
}  // namespace steins
