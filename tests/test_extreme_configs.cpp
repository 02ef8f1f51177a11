// Edge configurations: the mechanisms must stay correct at the extremes of
// their resource knobs (minimal NV buffer, single cached record line, tiny
// and large metadata caches, tiny NVM).
#include <gtest/gtest.h>

#include "schemes/steins.hpp"
#include "test_util.hpp"

namespace steins {
namespace {

using testutil::Driver;
using testutil::small_config;

struct Knobs {
  std::size_t nv_buffer_bytes;
  std::size_t record_lines;
  std::size_t mcache_bytes;
  const char* name;
};

void PrintTo(const Knobs& k, std::ostream* os) { *os << k.name; }

class ExtremeKnobs : public ::testing::TestWithParam<Knobs> {};

TEST_P(ExtremeKnobs, SteinsStaysCorrectAndRecoverable) {
  SystemConfig cfg = small_config(CounterMode::kGeneral, GetParam().mcache_bytes);
  cfg.secure.nv_buffer_bytes = GetParam().nv_buffer_bytes;
  cfg.secure.record_lines_cached = GetParam().record_lines;
  SteinsMemory mem(cfg);
  Driver d(mem);
  d.write_random(2000, 120'000);
  ASSERT_TRUE(d.check_all());
  mem.crash();
  const RecoveryResult r = mem.recover();
  ASSERT_TRUE(r.ok()) << r.attack_detail;
  EXPECT_TRUE(d.check_all());
}

INSTANTIATE_TEST_SUITE_P(
    Knobs, ExtremeKnobs,
    ::testing::Values(Knobs{16, 16, 16 * 1024, "one_buffer_entry"},
                      Knobs{128, 1, 16 * 1024, "one_record_line"},
                      Knobs{16, 1, 8 * 1024, "everything_minimal"},
                      Knobs{512, 64, 16 * 1024, "oversized_adr"},
                      Knobs{128, 16, 4 * 1024, "tiny_mcache"},
                      Knobs{128, 16, 128 * 1024, "large_mcache"}),
    [](const ::testing::TestParamInfo<Knobs>& info) { return info.param.name; });

TEST(ExtremeConfigs, TinyNvmCapacity) {
  // 1 MB NVM: a 3-level tree; everything must still work end to end.
  SystemConfig cfg = small_config(CounterMode::kGeneral);
  cfg.nvm.capacity_bytes = 1ULL << 20;
  SteinsMemory mem(cfg);
  Driver d(mem);
  d.write_random(1000, cfg.nvm.capacity_bytes / kBlockSize);
  mem.crash();
  ASSERT_TRUE(mem.recover().ok());
  EXPECT_TRUE(d.check_all());
}

TEST(ExtremeConfigs, SplitModeMinimalCache) {
  SystemConfig cfg = small_config(CounterMode::kSplit, 4 * 1024);
  SteinsMemory mem(cfg);
  Driver d(mem);
  for (int round = 0; round < 2; ++round) {
    d.write_random(800, 60'000);
    mem.crash();
    ASSERT_TRUE(mem.recover().ok()) << "round " << round;
    ASSERT_TRUE(d.check_all());
  }
}

}  // namespace
}  // namespace steins
