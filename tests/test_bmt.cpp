// Bonsai Merkle Tree baseline (paper §II-C): functional correctness,
// sequential update cost, whole-tree reconstruction recovery.
#include <gtest/gtest.h>

#include <map>

#include "fault/adversary.hpp"
#include "schemes/bmt.hpp"
#include "schemes/writeback.hpp"
#include "test_util.hpp"

namespace steins {
namespace {

using testutil::pattern_block;
using testutil::small_config;

TEST(Bmt, WriteReadRoundTrip) {
  BmtMemory mem(small_config());
  std::map<Addr, std::uint64_t> versions;
  Cycle now = 0;
  Xoshiro256 rng(3);
  for (int i = 0; i < 2000; ++i) {
    const Addr addr = rng.below(100'000) * kBlockSize;
    const std::uint64_t v = ++versions[addr];
    now = mem.write_block(addr, pattern_block(addr, v), now);
  }
  for (const auto& [addr, v] : versions) {
    Block out;
    now = mem.read_block(addr, now, &out);
    ASSERT_EQ(out, pattern_block(addr, v));
  }
}

TEST(Bmt, SequentialHashChainCostsMoreThanSit) {
  // Use a roomy metadata cache so fetch-chain verification doesn't dominate
  // and the steady-state per-write hash cost is visible.
  const SystemConfig cfg = small_config(CounterMode::kGeneral, 256 * 1024);
  BmtMemory bmt(cfg);
  WriteBackMemory sit(cfg);
  Block data{};
  Cycle tb = 0, ts = 0;
  Xoshiro256 rng(4);
  for (int i = 0; i < 1000; ++i) {
    const Addr addr = rng.below(100'000) * kBlockSize;
    tb = bmt.write_block(addr, data, tb);
    ts = sit.write_block(addr, data, ts);
  }
  // The BMT recomputes the whole branch per write (paper §II-C).
  EXPECT_GT(bmt.stats().hash_ops, 2 * sit.stats().hash_ops);
}

TEST(Bmt, RecoversAfterCrash) {
  BmtMemory mem(small_config());
  std::map<Addr, std::uint64_t> versions;
  Cycle now = 0;
  Xoshiro256 rng(5);
  for (int i = 0; i < 1500; ++i) {
    const Addr addr = rng.below(80'000) * kBlockSize;
    const std::uint64_t v = ++versions[addr];
    now = mem.write_block(addr, pattern_block(addr, v), now);
  }
  mem.crash();
  const RecoveryResult r = mem.recover();
  ASSERT_TRUE(r.ok()) << r.attack_detail;
  EXPECT_GT(r.nodes_recovered, 0u);
  for (const auto& [addr, v] : versions) {
    Block out;
    now = mem.read_block(addr, now, &out);
    ASSERT_EQ(out, pattern_block(addr, v));
  }
}

TEST(Bmt, RecoveryCostScalesWithMemoryNotCache) {
  // The defining weakness vs Steins: recovery reads the whole leaf region.
  SystemConfig small_cap = small_config();
  small_cap.nvm.capacity_bytes = 16ULL << 20;
  SystemConfig large_cap = small_config();
  large_cap.nvm.capacity_bytes = 64ULL << 20;
  BmtMemory a(small_cap), b(large_cap);
  Block data{};
  Cycle t = 0;
  for (int i = 0; i < 100; ++i) {
    t = a.write_block(static_cast<Addr>(i) * kBlockSize, data, t);
    b.write_block(static_cast<Addr>(i) * kBlockSize, data, t);
  }
  a.crash();
  b.crash();
  const auto ra = a.recover();
  const auto rb = b.recover();
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  // 4x the capacity -> ~4x the recovery reads, despite identical workloads.
  EXPECT_GT(rb.nvm_reads, 3 * ra.nvm_reads);
}

TEST(Bmt, TamperedDataDetectedAtRecovery) {
  BmtMemory mem(small_config());
  Block data{};
  Cycle t = 0;
  t = mem.write_block(0x4000, data, t);
  t = mem.write_block(0x4000, data, t);
  mem.crash();
  tamper_line(mem.device(), 0x4000, 7);
  const RecoveryResult r = mem.recover();
  EXPECT_TRUE(r.attack_detected);
}

TEST(Bmt, RuntimeTamperDetected) {
  BmtMemory mem(small_config());
  Block data{};
  Cycle t = 0;
  t = mem.write_block(0x8000, data, t);
  mem.channel().drain_all(t);
  tamper_line(mem.device(), 0x8000, 1);
  Block out;
  EXPECT_THROW(mem.read_block(0x8000, t, &out), IntegrityViolation);
}

}  // namespace
}  // namespace steins
