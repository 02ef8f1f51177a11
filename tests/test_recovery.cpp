// Crash-recovery integration tests: after a crash, each recoverable scheme
// must restore every dirty node to its exact pre-crash state and leave all
// data readable and verifiable (paper §III-G).
#include <gtest/gtest.h>

#include <memory>

#include "schemes/steins.hpp"
#include "secure/secure_memory.hpp"
#include "test_util.hpp"

namespace steins {
namespace {

using testutil::Driver;
using testutil::dirty_snapshot;
using testutil::small_config;

struct Variant {
  Scheme scheme;
  CounterMode mode;
  const char* name;
};

void PrintTo(const Variant& v, std::ostream* os) { *os << v.name; }

class SchemeRecovery : public ::testing::TestWithParam<Variant> {
 protected:
  void SetUp() override {
    cfg_ = small_config(GetParam().mode);
    mem_ = make_scheme(GetParam().scheme, cfg_);
    base_ = dynamic_cast<SecureMemoryBase*>(mem_.get());
    ASSERT_NE(base_, nullptr);
  }

  SystemConfig cfg_;
  std::unique_ptr<SecureMemory> mem_;
  SecureMemoryBase* base_ = nullptr;
};

TEST_P(SchemeRecovery, RestoresDirtyNodesExactly) {
  Driver d(*mem_);
  d.write_random(3000, 150'000);

  // Settle deferred parent updates first: Steins' recovery applies the NV
  // buffer, so the restored state corresponds to the post-drain state.
  if (auto* steins = dynamic_cast<SteinsMemory*>(mem_.get())) {
    Cycle t = d.now();
    steins->drain_nv_buffer(t);
  }
  const auto before = dirty_snapshot(*base_);
  ASSERT_FALSE(before.empty()) << "workload should leave dirty metadata";

  mem_->crash();
  const RecoveryResult r = mem_->recover();
  ASSERT_TRUE(r.supported);
  ASSERT_FALSE(r.attack_detected) << r.attack_detail;
  EXPECT_GT(r.nodes_recovered, 0u);
  EXPECT_GT(r.nvm_reads, 0u);
  EXPECT_GT(r.seconds, 0.0);

  for (const auto& [key, node] : before) {
    const auto state = base_->current_node_state(node.id);
    ASSERT_TRUE(state.has_value()) << "node lost at level " << node.id.level;
    EXPECT_TRUE(state->counters_equal(node))
        << "level " << node.id.level << " index " << node.id.index;
    (void)key;
  }
}

TEST_P(SchemeRecovery, DataReadableAfterRecovery) {
  Driver d(*mem_);
  d.write_random(2000, 100'000);
  mem_->crash();
  const RecoveryResult r = mem_->recover();
  ASSERT_TRUE(r.ok()) << r.attack_detail;
  EXPECT_TRUE(d.check_all());
}

TEST_P(SchemeRecovery, SurvivesCrashWithCleanCache) {
  Driver d(*mem_);
  d.write_random(500, 50'000);
  base_->flush_all_metadata();
  mem_->crash();
  const RecoveryResult r = mem_->recover();
  ASSERT_TRUE(r.ok()) << r.attack_detail;
  EXPECT_TRUE(d.check_all());
}

TEST_P(SchemeRecovery, SurvivesCrashBeforeAnyWrite) {
  mem_->crash();
  const RecoveryResult r = mem_->recover();
  EXPECT_TRUE(r.ok()) << r.attack_detail;
}

TEST_P(SchemeRecovery, RepeatedCrashRecoverCycles) {
  Driver d(*mem_);
  for (int round = 0; round < 3; ++round) {
    d.write_random(800, 60'000);
    mem_->crash();
    const RecoveryResult r = mem_->recover();
    ASSERT_TRUE(r.ok()) << "round " << round << ": " << r.attack_detail;
    ASSERT_TRUE(d.check_all()) << "round " << round;
  }
}

TEST_P(SchemeRecovery, WriteAfterRecoveryContinues) {
  Driver d(*mem_);
  d.write_random(1000, 80'000);
  mem_->crash();
  ASSERT_TRUE(mem_->recover().ok());
  d.write_random(1000, 80'000);
  EXPECT_TRUE(d.check_all());
}

INSTANTIATE_TEST_SUITE_P(
    RecoverableSchemes, SchemeRecovery,
    ::testing::Values(Variant{Scheme::kAnubis, CounterMode::kGeneral, "ASIT"},
                      Variant{Scheme::kStar, CounterMode::kGeneral, "STAR"},
                      Variant{Scheme::kSteins, CounterMode::kGeneral, "Steins_GC"},
                      Variant{Scheme::kSteins, CounterMode::kSplit, "Steins_SC"}),
    [](const ::testing::TestParamInfo<Variant>& info) { return info.param.name; });

TEST(WriteBackRecovery, ReportsUnsupported) {
  auto mem = make_scheme(Scheme::kWriteBack, small_config());
  Driver d(*mem);
  d.write_random(100, 10'000);
  mem->crash();
  const RecoveryResult r = mem->recover();
  EXPECT_FALSE(r.supported);
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace steins
