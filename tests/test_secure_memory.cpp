// Functional tests of the secure data path, parameterized over every
// (scheme, counter-mode) variant the paper evaluates: encrypt/verify round
// trips under cache pressure, clean-tree persistence, runtime attack
// detection.
#include <gtest/gtest.h>

#include <memory>

#include "fault/adversary.hpp"
#include "schemes/steins.hpp"
#include "secure/secure_memory.hpp"
#include "test_util.hpp"

namespace steins {
namespace {

using testutil::Driver;
using testutil::small_config;

struct Variant {
  Scheme scheme;
  CounterMode mode;
  const char* name;
};

void PrintTo(const Variant& v, std::ostream* os) { *os << v.name; }

class SchemeDataPath : public ::testing::TestWithParam<Variant> {
 protected:
  std::unique_ptr<SecureMemory> make() {
    return make_scheme(GetParam().scheme, small_config(GetParam().mode));
  }
};

TEST_P(SchemeDataPath, WriteReadRoundTripSmall) {
  auto mem = make();
  Driver d(*mem);
  for (std::uint64_t i = 0; i < 64; ++i) d.write(i);
  EXPECT_TRUE(d.check_all());
}

TEST_P(SchemeDataPath, WriteReadRoundTripUnderCachePressure) {
  auto mem = make();
  Driver d(*mem);
  // Footprint far larger than the 16 KB metadata cache covers: forces node
  // evictions and re-fetch verification chains.
  d.write_random(4000, 200'000);
  EXPECT_TRUE(d.check_all());
}

TEST_P(SchemeDataPath, RepeatedWritesAdvanceCounters) {
  auto mem = make();
  Driver d(*mem);
  for (int i = 0; i < 200; ++i) d.write(5);  // hammer one block
  EXPECT_TRUE(d.read_check(5));
}

TEST_P(SchemeDataPath, UnwrittenBlocksReadZero) {
  auto mem = make();
  Driver d(*mem);
  d.write(1);
  EXPECT_TRUE(d.read_check(999));  // never written -> zero block
}

TEST_P(SchemeDataPath, FlushAllLeavesVerifiableTree) {
  auto mem = make();
  auto* base = dynamic_cast<SecureMemoryBase*>(mem.get());
  ASSERT_NE(base, nullptr);
  Driver d(*mem);
  d.write_random(2000, 100'000);
  base->flush_all_metadata();
  // Drop the (now clean) cache; every fetch re-verifies from NVM up to the
  // root and must pass.
  base->metadata_cache().clear();
  EXPECT_TRUE(d.check_all());
}

TEST_P(SchemeDataPath, TamperedDataDetectedOnRead) {
  auto mem = make();
  auto* base = dynamic_cast<SecureMemoryBase*>(mem.get());
  Driver d(*mem);
  d.write(7);
  base->flush_all_metadata();
  tamper_line(mem->device(), 7 * kBlockSize, 3);
  base->metadata_cache().clear();
  EXPECT_THROW(d.read_check(7), IntegrityViolation);
}

TEST_P(SchemeDataPath, TamperedNodeDetectedOnFetch) {
  auto mem = make();
  auto* base = dynamic_cast<SecureMemoryBase*>(mem.get());
  Driver d(*mem);
  d.write_random(500, 50'000);
  base->flush_all_metadata();
  base->metadata_cache().clear();
  // Tamper the leaf covering block 0's first written address.
  const auto first = d.versions().begin()->first;
  const NodeId leaf = mem->geometry().leaf_of_data(first / kBlockSize);
  tamper_line(mem->device(), mem->geometry().node_addr(leaf), 5);
  EXPECT_THROW(d.read_check(first / kBlockSize), IntegrityViolation);
}

TEST_P(SchemeDataPath, ReplayedNodeDetectedOnFetch) {
  auto mem = make();
  auto* base = dynamic_cast<SecureMemoryBase*>(mem.get());
  Driver d(*mem);
  d.write(11);
  base->flush_all_metadata();
  const NodeId leaf = mem->geometry().leaf_of_data(11);
  const Addr leaf_addr = mem->geometry().node_addr(leaf);
  AdversarySnapshot recorded;
  record_line(mem->device(), leaf_addr, recorded);  // snapshot the old version
  d.write(11);                 // advance the counter
  base->flush_all_metadata();
  base->metadata_cache().clear();
  ASSERT_TRUE(replay_line(mem->device(), leaf_addr, recorded));  // splice the old node back
  EXPECT_THROW(d.read_check(11), IntegrityViolation);
}

TEST_P(SchemeDataPath, StatsAccumulate) {
  auto mem = make();
  Driver d(*mem);
  d.write_random(1000, 100'000);
  const ExecStats& s = mem->stats();
  EXPECT_GT(s.data_writes, 0u);
  EXPECT_GT(s.meta_reads, 0u);
  EXPECT_GT(s.hash_ops, 0u);
  EXPECT_GT(s.energy_nj(mem->config()), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, SchemeDataPath,
    ::testing::Values(Variant{Scheme::kWriteBack, CounterMode::kGeneral, "WB_GC"},
                      Variant{Scheme::kWriteBack, CounterMode::kSplit, "WB_SC"},
                      Variant{Scheme::kAnubis, CounterMode::kGeneral, "ASIT"},
                      Variant{Scheme::kStar, CounterMode::kGeneral, "STAR"},
                      Variant{Scheme::kSteins, CounterMode::kGeneral, "Steins_GC"},
                      Variant{Scheme::kSteins, CounterMode::kSplit, "Steins_SC"}),
    [](const ::testing::TestParamInfo<Variant>& info) { return info.param.name; });

}  // namespace
}  // namespace steins
