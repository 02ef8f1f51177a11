// SCUE-style scheme (paper §II-D): high runtime performance, Recovery_root
// verification, whole-tree reconstruction recovery.
#include <gtest/gtest.h>

#include "fault/adversary.hpp"
#include "schemes/scue.hpp"
#include "schemes/steins.hpp"
#include "test_util.hpp"

namespace steins {
namespace {

using testutil::Driver;
using testutil::small_config;

TEST(Scue, WriteReadRoundTripUnderPressure) {
  ScueMemory mem(small_config());
  Driver d(mem);
  d.write_random(3000, 150'000);
  EXPECT_TRUE(d.check_all());
}

TEST(Scue, RecoveryRootTracksLeafSum) {
  ScueMemory mem(small_config());
  Driver d(mem);
  for (int i = 0; i < 100; ++i) d.write(static_cast<std::uint64_t>(i));
  // Each write bumps exactly one leaf counter by one.
  EXPECT_EQ(mem.recovery_root(), 100u);
}

TEST(Scue, RecoversExactStateAfterCrash) {
  ScueMemory mem(small_config());
  Driver d(mem);
  d.write_random(2000, 100'000);
  const auto dirty = testutil::dirty_snapshot(mem);
  ASSERT_FALSE(dirty.empty());
  mem.crash();
  const RecoveryResult r = mem.recover();
  ASSERT_TRUE(r.ok()) << r.attack_detail;
  for (const auto& [off, node] : dirty) {
    (void)off;
    const auto state = mem.current_node_state(node.id);
    ASSERT_TRUE(state.has_value());
    if (node.id.level == 0) {
      // Leaf (encryption) counters must be restored exactly; SCUE
      // RECOMPUTES internal nodes from the recovered leaves, so they may
      // legitimately run ahead of the lazily-updated pre-crash cache.
      EXPECT_TRUE(state->counters_equal(node)) << "leaf index " << node.id.index;
    } else {
      for (std::size_t j = 0; j < kTreeArity; ++j) {
        EXPECT_GE(state->gc.counters[j], node.gc.counters[j])
            << "level " << node.id.level << " index " << node.id.index;
      }
    }
  }
  EXPECT_TRUE(d.check_all());
}

TEST(Scue, RecoveryReadsScaleWithMemoryNotDirtySet) {
  // SCUE recovery touches the whole leaf region even for a tiny workload —
  // the paper's reason for excluding it (§II-D).
  SystemConfig cfg = small_config();
  cfg.nvm.capacity_bytes = 64ULL << 20;
  ScueMemory scue(cfg);
  SteinsMemory steins_mem(cfg);
  Driver ds(scue), dt(steins_mem);
  ds.write_random(200, 50'000);
  dt.write_random(200, 50'000);
  scue.crash();
  steins_mem.crash();
  const auto rc = scue.recover();
  const auto rs = steins_mem.recover();
  ASSERT_TRUE(rc.ok());
  ASSERT_TRUE(rs.ok());
  EXPECT_GT(rc.nvm_reads, 20 * rs.nvm_reads);
  EXPECT_GT(rc.seconds, 10 * rs.seconds);
}

TEST(Scue, ReplayedDataDetectedByRecoveryRoot) {
  ScueMemory mem(small_config());
  Driver d(mem);
  d.write(55);
  mem.flush_all_metadata();
  AdversarySnapshot recorded;
  record_line(mem.device(), 55 * kBlockSize, recorded);
  d.write(55);
  d.write(55);
  mem.crash();
  ASSERT_TRUE(replay_line(mem.device(), 55 * kBlockSize, recorded));
  const RecoveryResult r = mem.recover();
  EXPECT_TRUE(r.attack_detected);
}

TEST(Scue, RepeatedCrashRecoverCycles) {
  ScueMemory mem(small_config());
  Driver d(mem);
  for (int round = 0; round < 3; ++round) {
    d.write_random(600, 50'000);
    mem.crash();
    ASSERT_TRUE(mem.recover().ok()) << "round " << round;
    ASSERT_TRUE(d.check_all()) << "round " << round;
  }
}

}  // namespace
}  // namespace steins
