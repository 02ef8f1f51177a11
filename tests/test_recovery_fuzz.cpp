// Randomized crash-point sweep: interleave writes, reads, flushes, and
// crashes at arbitrary points (including with NV-buffer entries pending and
// write-through races) and require exact recovery + readable data, across
// seeds and both counter modes.
#include <gtest/gtest.h>

#include <memory>

#include "schemes/steins.hpp"
#include "test_util.hpp"

namespace steins {
namespace {

using testutil::Driver;
using testutil::small_config;

struct FuzzCase {
  std::uint64_t seed;
  CounterMode mode;
};

void PrintTo(const FuzzCase& fc, std::ostream* os) {
  *os << (fc.mode == CounterMode::kSplit ? "SC" : "GC") << " seed " << fc.seed;
}

class RecoveryFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(RecoveryFuzz, RandomOpsAndCrashes) {
  const FuzzCase fc = GetParam();
  SteinsMemory mem(small_config(fc.mode, 8 * 1024));  // tiny cache: max churn
  Driver d(mem, fc.seed);
  Xoshiro256 dice(fc.seed * 31 + 7);

  for (int round = 0; round < 6; ++round) {
    // A random mix of operations, biased toward writes.
    const std::uint64_t ops = 200 + dice.below(800);
    for (std::uint64_t i = 0; i < ops; ++i) {
      const std::uint64_t block = dice.below(60'000);
      if (dice.chance(0.7)) {
        d.write(block);
      } else {
        ASSERT_TRUE(d.read_check(block));
      }
    }
    if (dice.chance(0.3)) {
      mem.flush_all_metadata();
    }
    // Crash at whatever state we're in (buffer possibly non-empty).
    mem.crash();
    const RecoveryResult r = mem.recover();
    ASSERT_TRUE(r.ok()) << "round " << round << ": " << r.attack_detail;
    ASSERT_TRUE(d.check_all()) << "round " << round;
  }
}

std::vector<FuzzCase> fuzz_cases() {
  std::vector<FuzzCase> cases;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    cases.push_back({seed, CounterMode::kGeneral});
    cases.push_back({seed, CounterMode::kSplit});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryFuzz, ::testing::ValuesIn(fuzz_cases()),
                         [](const ::testing::TestParamInfo<FuzzCase>& info) {
                           return std::string(info.param.mode == CounterMode::kSplit ? "SC"
                                                                                     : "GC") +
                                  "_seed" + std::to_string(info.param.seed);
                         });

}  // namespace
}  // namespace steins
