// The shared crash harness (fault/crash_harness.hpp): the verdict mapping
// every store crash path scores through, the RecoveryResult classification,
// the reproduction line, the nested-crash path of the KV and LSM adapters,
// and golden verdicts pinning every store's scripts, boundaries and
// outcomes.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "fault/crash_harness.hpp"
#include "kv/kv_crash.hpp"
#include "kv/lsm/lsm_crash.hpp"
#include "kv/serving.hpp"
#include "test_util.hpp"

namespace steins {
namespace {

using testutil::crash_passes;
using testutil::crash_why;
using testutil::small_config;

constexpr Scheme kAllSchemes[] = {Scheme::kWriteBack, Scheme::kAnubis, Scheme::kStar,
                                  Scheme::kScue, Scheme::kSteins};

// ---------------------------------------------------------------------------
// Verdict mapping and recovery classification.

TEST(CrashHarness, GaveUpFailsForEveryScheme) {
  CrashReport r;
  r.recovery_supported = true;
  r.recovery_ok = true;  // even a report that otherwise looks clean
  r.verified = true;
  r.recovery_gave_up = true;
  for (const Scheme s : kAllSchemes) {
    EXPECT_EQ(crash_verdict(r, s), FaultVerdict::kRecoveryCrashUnrecoverable);
    EXPECT_FALSE(crash_passes(r, s));
  }
}

TEST(CrashHarness, SilentDiffFailsForEveryScheme) {
  CrashReport r;
  r.recovery_supported = true;
  r.recovery_ok = true;
  r.detail = "committed key 3 has wrong value after recovery";
  for (const Scheme s : kAllSchemes) {
    EXPECT_EQ(crash_verdict(r, s), FaultVerdict::kSilentCorruption);
    EXPECT_FALSE(crash_passes(r, s));
  }
  // An injected fault does not excuse a diff no check caught.
  r.faulted = true;
  for (const Scheme s : kAllSchemes) EXPECT_FALSE(crash_passes(r, s));
}

TEST(CrashHarness, VerdictMapping) {
  CrashReport wb;
  wb.recovery_supported = false;
  EXPECT_EQ(crash_verdict(wb, Scheme::kWriteBack), FaultVerdict::kDetected);
  EXPECT_TRUE(crash_passes(wb, Scheme::kWriteBack));
  wb.recovery_supported = true;  // WB claiming recovery is never believed
  EXPECT_EQ(crash_verdict(wb, Scheme::kWriteBack), FaultVerdict::kSilentCorruption);

  CrashReport ok;
  ok.recovery_supported = true;
  ok.recovery_ok = true;
  ok.verified = true;
  EXPECT_EQ(crash_verdict(ok, Scheme::kSteins), FaultVerdict::kRecovered);
  ok.recovery_attempts = 2;
  EXPECT_EQ(crash_verdict(ok, Scheme::kSteins), FaultVerdict::kRecoveredAfterRetry);
  EXPECT_TRUE(crash_passes(ok, Scheme::kSteins));

  CrashReport salvage;
  salvage.recovery_supported = true;
  salvage.salvaged = true;
  salvage.degraded_verified = true;
  EXPECT_EQ(crash_verdict(salvage, Scheme::kStar), FaultVerdict::kSalvaged);

  CrashReport caught;
  caught.recovery_supported = true;
  caught.faulted = true;
  caught.fault_detected = true;
  EXPECT_EQ(crash_verdict(caught, Scheme::kScue), FaultVerdict::kDetected);
  caught.faulted = false;  // detection without an injected fault is a bug
  EXPECT_EQ(crash_verdict(caught, Scheme::kScue), FaultVerdict::kSilentCorruption);
}

TEST(CrashHarness, ClassifyRecoveryPrecedence) {
  RecoveryResult r;
  EXPECT_EQ(classify_recovery(r), RecoveryClass::kClean);
  r.tracking_degraded = true;
  EXPECT_EQ(classify_recovery(r), RecoveryClass::kDegraded);
  r.attack_detected = true;
  EXPECT_EQ(classify_recovery(r), RecoveryClass::kAttackDetected);
  r.status = Status(ErrorCode::kInternal, "boom");
  EXPECT_EQ(classify_recovery(r), RecoveryClass::kInternalError);
  r.supported = false;
  EXPECT_EQ(classify_recovery(r), RecoveryClass::kUnsupported);
  r.recovery_gave_up = true;
  EXPECT_EQ(classify_recovery(r), RecoveryClass::kGaveUp);
}

TEST(CrashHarness, ReproNamesEverythingThatReproduces) {
  lsm::LsmCrashOptions opt;
  opt.ops = 48;
  opt.seed = 3;
  opt.fault_class = FaultClass::kTornWrite;
  opt.fault_seed = 77;
  opt.adversary = AdversaryScenario::kSubtreeRollback;
  opt.adversary_seed = 99;
  const CrashReport r = lsm::run_lsm_crash_validation(small_config(), Scheme::kSteins, opt);
  const std::string line = r.repro();
  for (const std::string& part :
       {std::string("store=lsm"), std::string("scheme=Steins-GC"), std::string("seed=3"),
        "crash_at=" + std::to_string(r.crash_at), "stage=" + r.crash_stage,
        std::string("fault=torn-write"), std::string("fault_seed=77"),
        std::string("adversary=subtree-rollback"), std::string("adversary_seed=99")}) {
    EXPECT_NE(line.find(part), std::string::npos) << part << " missing from " << line;
  }
  // Replaying the printed fields reproduces the trial.
  opt.crash_at = r.crash_at;
  const CrashReport again = lsm::run_lsm_crash_validation(small_config(), Scheme::kSteins, opt);
  EXPECT_EQ(again.repro(), line);
  EXPECT_EQ(again.detail, r.detail);
  EXPECT_EQ(crash_verdict(again, Scheme::kSteins), crash_verdict(r, Scheme::kSteins));
}

TEST(CrashHarness, KvMatrixIsDeterministicAcrossJobCounts) {
  kv::KvCrashOptions opt;
  opt.ops = 24;
  const CrashMatrix seq =
      kv::run_kv_crash_matrix(small_config(), Scheme::kSteins, opt, 3, /*jobs=*/1);
  const CrashMatrix par =
      kv::run_kv_crash_matrix(small_config(), Scheme::kSteins, opt, 3, /*jobs=*/4);
  EXPECT_EQ(seq.total(), par.total());
  EXPECT_EQ(seq.recovered, par.recovered);
  EXPECT_EQ(seq.stage_trials, par.stage_trials);
  EXPECT_TRUE(seq.failures.empty()) << seq.failure_lines();
  // The KV persist protocol has two stages, and a strided sweep sees both.
  EXPECT_TRUE(seq.stage_trials.contains("record"));
  EXPECT_TRUE(seq.stage_trials.contains("commit"));
}

// ---------------------------------------------------------------------------
// The nested-crash path of the store harnesses (DESIGN.md §17): recovery
// itself crashes at an armed persist boundary and is re-entered.

enum class Store { kKv, kLsm };

void PrintTo(Store s, std::ostream* os) { *os << (s == Store::kKv ? "KV" : "LSM"); }

CrashReport run_store(Store store, Scheme scheme, const CrashOptions& base) {
  if (store == Store::kKv) {
    kv::KvCrashOptions opt;
    static_cast<CrashOptions&>(opt) = base;
    return kv::run_kv_crash_validation(small_config(), scheme, opt);
  }
  lsm::LsmCrashOptions opt;
  static_cast<CrashOptions&>(opt) = base;
  return lsm::run_lsm_crash_validation(small_config(), scheme, opt);
}

class CrashHarnessNested : public ::testing::TestWithParam<std::tuple<Store, Scheme>> {
 protected:
  static CrashOptions options() {
    CrashOptions opt;
    opt.ops = 48;
    opt.recovery_crash_boundary = 1;
    return opt;
  }
};

TEST_P(CrashHarnessNested, ArmedBoundaryConvergesAfterRetry) {
  const auto [store, scheme] = GetParam();
  const CrashReport r = run_store(store, scheme, options());
  EXPECT_EQ(crash_verdict(r, scheme), FaultVerdict::kRecoveredAfterRetry) << crash_why(r);
  EXPECT_GE(r.recovery_attempts, 2u) << crash_why(r);
  EXPECT_TRUE(r.verified) << crash_why(r);
  EXPECT_TRUE(crash_passes(r, scheme)) << crash_why(r);
}

TEST_P(CrashHarnessNested, RearmedWithoutRetryBudgetIsUnrecoverable) {
  const auto [store, scheme] = GetParam();
  CrashOptions opt = options();
  opt.recovery_crash_rearm = true;
  opt.retry_policy.max_recovery_attempts = 1;
  const CrashReport r = run_store(store, scheme, opt);
  EXPECT_TRUE(r.recovery_gave_up) << crash_why(r);
  EXPECT_EQ(crash_verdict(r, scheme), FaultVerdict::kRecoveryCrashUnrecoverable)
      << crash_why(r);
  EXPECT_FALSE(crash_passes(r, scheme)) << crash_why(r);
}

INSTANTIATE_TEST_SUITE_P(
    Stores, CrashHarnessNested,
    ::testing::Combine(::testing::Values(Store::kKv, Store::kLsm),
                       ::testing::Values(Scheme::kSteins, Scheme::kAnubis)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param) == Store::kKv ? "Kv" : "Lsm";
      return name + (std::get<1>(info.param) == Scheme::kSteins ? "Steins" : "ASIT");
    });

// ---------------------------------------------------------------------------
// Golden verdicts, recorded from the per-store harnesses the shared one
// replaced: seeds 1-3, every recoverable scheme plus WB, the clean crash,
// every fault class, every post-crash adversary scenario and (LSM) manifest
// loss. They pin each store's script and boundary salts, the boundary
// choice, and every branch of recovery, reopen and diff.

struct StoreGolden {
  std::uint64_t seed;
  Scheme scheme;
  const char* variant;
  std::uint64_t crash_at;
  const char* verdict;
  std::uint64_t committed_keys;
  std::uint64_t keys_unavailable;
  std::uint64_t recovery_attempts;
  std::uint64_t detail_fnv;  // FNV-1a 64 of the report's detail
};

using S = Scheme;

// KV: ops 24 over 16 keys, 64 slots, 16 MB NVM.
const StoreGolden kKvGolden[] = {
    {1, S::kWriteBack, "clean", 12, "detected", 4, 0, 1, 0x8f23204e66d3e2ebULL},
    {1, S::kWriteBack, "torn-write", 12, "detected", 4, 0, 1, 0x8f23204e66d3e2ebULL},
    {1, S::kWriteBack, "dropped-persist", 12, "detected", 4, 0, 1, 0x8f23204e66d3e2ebULL},
    {1, S::kWriteBack, "reordered-persist", 12, "detected", 4, 0, 1, 0x8f23204e66d3e2ebULL},
    {1, S::kWriteBack, "adr-loss", 12, "detected", 4, 0, 1, 0x8f23204e66d3e2ebULL},
    {1, S::kWriteBack, "flip-data", 12, "detected", 4, 0, 1, 0x8f23204e66d3e2ebULL},
    {1, S::kWriteBack, "flip-counter", 12, "detected", 4, 0, 1, 0x8f23204e66d3e2ebULL},
    {1, S::kWriteBack, "flip-node", 12, "detected", 4, 0, 1, 0x8f23204e66d3e2ebULL},
    {1, S::kWriteBack, "flip-mac", 12, "detected", 4, 0, 1, 0x8f23204e66d3e2ebULL},
    {1, S::kWriteBack, "flip-record", 12, "detected", 4, 0, 1, 0x8f23204e66d3e2ebULL},
    {1, S::kWriteBack, "correctable-flip", 12, "detected", 4, 0, 1, 0x8f23204e66d3e2ebULL},
    {1, S::kWriteBack, "node-rollback", 12, "detected", 4, 0, 1, 0x8f23204e66d3e2ebULL},
    {1, S::kWriteBack, "subtree-rollback", 12, "detected", 4, 0, 1, 0x8f23204e66d3e2ebULL},
    {1, S::kWriteBack, "nv-bypass-replay", 12, "detected", 4, 0, 1, 0x8f23204e66d3e2ebULL},
    {1, S::kWriteBack, "record-forgery", 12, "detected", 4, 0, 1, 0x8f23204e66d3e2ebULL},
    {1, S::kWriteBack, "torn-record", 12, "detected", 4, 0, 1, 0x8f23204e66d3e2ebULL},
    {1, S::kAnubis, "clean", 12, "recovered", 4, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kAnubis, "torn-write", 12, "detected", 4, 0, 1, 0x7b09a3a33df85709ULL},
    {1, S::kAnubis, "dropped-persist", 12, "detected", 4, 0, 1, 0xa3b1c65b7f56a826ULL},
    {1, S::kAnubis, "reordered-persist", 12, "detected", 4, 0, 1, 0xa3b1c65b7f56a826ULL},
    {1, S::kAnubis, "adr-loss", 12, "detected", 4, 0, 1, 0xa3b1c65b7f56a826ULL},
    {1, S::kAnubis, "flip-data", 12, "salvaged", 4, 1, 1, 0xcbf29ce484222325ULL},
    {1, S::kAnubis, "flip-counter", 12, "recovered", 4, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kAnubis, "flip-node", 12, "recovered", 4, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kAnubis, "flip-mac", 12, "detected", 4, 0, 1, 0x720103a338bf84fbULL},
    {1, S::kAnubis, "flip-record", 12, "salvaged", 4, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kAnubis, "correctable-flip", 12, "recovered", 4, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kAnubis, "node-rollback", 12, "recovered", 4, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kAnubis, "subtree-rollback", 12, "detected", 4, 0, 1, 0x7b09a9a33df8613bULL},
    {1, S::kAnubis, "nv-bypass-replay", 12, "recovered", 4, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kAnubis, "record-forgery", 12, "detected", 4, 0, 1, 0xa3b1c65b7f56a826ULL},
    {1, S::kAnubis, "torn-record", 12, "detected", 4, 0, 1, 0xa3b1c65b7f56a826ULL},
    {1, S::kStar, "clean", 12, "recovered", 4, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kStar, "torn-write", 12, "detected", 4, 0, 1, 0x720103a338bf84fbULL},
    {1, S::kStar, "dropped-persist", 12, "detected", 4, 0, 1, 0x27f9c4affabb0e02ULL},
    {1, S::kStar, "reordered-persist", 12, "recovered", 4, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kStar, "adr-loss", 12, "detected", 4, 0, 1, 0x27f9c4affabb0e02ULL},
    {1, S::kStar, "flip-data", 12, "salvaged", 4, 1, 1, 0xcbf29ce484222325ULL},
    {1, S::kStar, "flip-counter", 12, "recovered", 4, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kStar, "flip-node", 12, "recovered", 4, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kStar, "flip-mac", 12, "detected", 4, 0, 1, 0x720103a338bf84fbULL},
    {1, S::kStar, "flip-record", 12, "detected", 4, 0, 1, 0x68c246a33358f236ULL},
    {1, S::kStar, "correctable-flip", 12, "recovered", 4, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kStar, "node-rollback", 12, "detected", 4, 0, 1, 0x5689e7b64b124888ULL},
    {1, S::kStar, "subtree-rollback", 12, "detected", 4, 0, 1, 0x27f9c4affabb0e02ULL},
    {1, S::kStar, "nv-bypass-replay", 12, "detected", 4, 0, 1, 0x5689e7b64b124888ULL},
    {1, S::kStar, "record-forgery", 12, "detected", 4, 0, 1, 0x27f9c4affabb0e02ULL},
    {1, S::kStar, "torn-record", 12, "recovered", 4, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kScue, "clean", 12, "recovered", 4, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kScue, "torn-write", 12, "detected", 4, 0, 1, 0xb5008c17603bb763ULL},
    {1, S::kScue, "dropped-persist", 12, "detected", 4, 0, 1, 0x9c54fdb334a3400bULL},
    {1, S::kScue, "reordered-persist", 12, "recovered", 4, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kScue, "adr-loss", 12, "detected", 4, 0, 1, 0x9c54fdb334a3400bULL},
    {1, S::kScue, "flip-data", 12, "salvaged", 4, 1, 1, 0xcbf29ce484222325ULL},
    {1, S::kScue, "flip-counter", 12, "recovered", 4, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kScue, "flip-node", 12, "recovered", 4, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kScue, "flip-mac", 12, "detected", 4, 0, 1, 0xb5008c17603bb763ULL},
    {1, S::kScue, "flip-record", 12, "recovered", 4, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kScue, "correctable-flip", 12, "recovered", 4, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kScue, "node-rollback", 12, "recovered", 4, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kScue, "subtree-rollback", 12, "detected", 4, 0, 1, 0xb5008c17603bb763ULL},
    {1, S::kScue, "nv-bypass-replay", 12, "recovered", 4, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kScue, "record-forgery", 12, "recovered", 4, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kScue, "torn-record", 12, "recovered", 4, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kSteins, "clean", 12, "recovered", 4, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kSteins, "torn-write", 12, "detected", 4, 0, 1, 0xab9fda9d4fcf266eULL},
    {1, S::kSteins, "dropped-persist", 12, "detected", 4, 0, 1, 0xc66b0e2bc1c9f135ULL},
    {1, S::kSteins, "reordered-persist", 12, "recovered", 4, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kSteins, "adr-loss", 12, "detected", 4, 0, 1, 0xc66b0e2bc1c9f135ULL},
    {1, S::kSteins, "flip-data", 12, "salvaged", 4, 1, 1, 0xcbf29ce484222325ULL},
    {1, S::kSteins, "flip-counter", 12, "recovered", 4, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kSteins, "flip-node", 12, "recovered", 4, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kSteins, "flip-mac", 12, "detected", 4, 0, 1, 0xab9fda9d4fcf266eULL},
    {1, S::kSteins, "flip-record", 12, "detected", 4, 0, 1, 0x68c246a33358f236ULL},
    {1, S::kSteins, "correctable-flip", 12, "recovered", 4, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kSteins, "node-rollback", 12, "detected", 4, 0, 1, 0x747e01fc5982de1fULL},
    {1, S::kSteins, "subtree-rollback", 12, "detected", 4, 0, 1, 0x747e01fc5982de1fULL},
    {1, S::kSteins, "nv-bypass-replay", 12, "detected", 4, 0, 1, 0x747e01fc5982de1fULL},
    {1, S::kSteins, "record-forgery", 12, "detected", 4, 0, 1, 0xc66b0e2bc1c9f135ULL},
    {1, S::kSteins, "torn-record", 12, "detected", 4, 0, 1, 0xc66b0e2bc1c9f135ULL},
    {2, S::kWriteBack, "clean", 18, "detected", 8, 0, 1, 0x8f23204e66d3e2ebULL},
    {2, S::kWriteBack, "torn-write", 18, "detected", 8, 0, 1, 0x8f23204e66d3e2ebULL},
    {2, S::kWriteBack, "dropped-persist", 18, "detected", 8, 0, 1, 0x8f23204e66d3e2ebULL},
    {2, S::kWriteBack, "reordered-persist", 18, "detected", 8, 0, 1, 0x8f23204e66d3e2ebULL},
    {2, S::kWriteBack, "adr-loss", 18, "detected", 8, 0, 1, 0x8f23204e66d3e2ebULL},
    {2, S::kWriteBack, "flip-data", 18, "detected", 8, 0, 1, 0x8f23204e66d3e2ebULL},
    {2, S::kWriteBack, "flip-counter", 18, "detected", 8, 0, 1, 0x8f23204e66d3e2ebULL},
    {2, S::kWriteBack, "flip-node", 18, "detected", 8, 0, 1, 0x8f23204e66d3e2ebULL},
    {2, S::kWriteBack, "flip-mac", 18, "detected", 8, 0, 1, 0x8f23204e66d3e2ebULL},
    {2, S::kWriteBack, "flip-record", 18, "detected", 8, 0, 1, 0x8f23204e66d3e2ebULL},
    {2, S::kWriteBack, "correctable-flip", 18, "detected", 8, 0, 1, 0x8f23204e66d3e2ebULL},
    {2, S::kWriteBack, "node-rollback", 18, "detected", 8, 0, 1, 0x8f23204e66d3e2ebULL},
    {2, S::kWriteBack, "subtree-rollback", 18, "detected", 8, 0, 1, 0x8f23204e66d3e2ebULL},
    {2, S::kWriteBack, "nv-bypass-replay", 18, "detected", 8, 0, 1, 0x8f23204e66d3e2ebULL},
    {2, S::kWriteBack, "record-forgery", 18, "detected", 8, 0, 1, 0x8f23204e66d3e2ebULL},
    {2, S::kWriteBack, "torn-record", 18, "detected", 8, 0, 1, 0x8f23204e66d3e2ebULL},
    {2, S::kAnubis, "clean", 18, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kAnubis, "torn-write", 18, "detected", 8, 0, 1, 0xa3b1c65b7f56a826ULL},
    {2, S::kAnubis, "dropped-persist", 18, "detected", 8, 0, 1, 0xa3b1c65b7f56a826ULL},
    {2, S::kAnubis, "reordered-persist", 18, "detected", 8, 0, 1, 0xa3b1c65b7f56a826ULL},
    {2, S::kAnubis, "adr-loss", 18, "detected", 8, 0, 1, 0xa3b1c65b7f56a826ULL},
    {2, S::kAnubis, "flip-data", 18, "salvaged", 8, 1, 1, 0xcbf29ce484222325ULL},
    {2, S::kAnubis, "flip-counter", 18, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kAnubis, "flip-node", 18, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kAnubis, "flip-mac", 18, "detected", 8, 0, 1, 0x68c246a33358f236ULL},
    {2, S::kAnubis, "flip-record", 18, "salvaged", 8, 1, 1, 0xcbf29ce484222325ULL},
    {2, S::kAnubis, "correctable-flip", 18, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kAnubis, "node-rollback", 18, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kAnubis, "subtree-rollback", 18, "detected", 8, 0, 1, 0x71fa77a338ba2b69ULL},
    {2, S::kAnubis, "nv-bypass-replay", 18, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kAnubis, "record-forgery", 18, "detected", 8, 0, 1, 0xa3b1c65b7f56a826ULL},
    {2, S::kAnubis, "torn-record", 18, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kStar, "clean", 18, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kStar, "torn-write", 18, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kStar, "dropped-persist", 18, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kStar, "reordered-persist", 18, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kStar, "adr-loss", 18, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kStar, "flip-data", 18, "salvaged", 8, 1, 1, 0xcbf29ce484222325ULL},
    {2, S::kStar, "flip-counter", 18, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kStar, "flip-node", 18, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kStar, "flip-mac", 18, "detected", 8, 0, 1, 0x68c246a33358f236ULL},
    {2, S::kStar, "flip-record", 18, "detected", 8, 0, 1, 0x68c246a33358f236ULL},
    {2, S::kStar, "correctable-flip", 18, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kStar, "node-rollback", 18, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kStar, "subtree-rollback", 18, "detected", 8, 0, 1, 0x27f9c4affabb0e02ULL},
    {2, S::kStar, "nv-bypass-replay", 18, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kStar, "record-forgery", 18, "detected", 8, 0, 1, 0x27f9c4affabb0e02ULL},
    {2, S::kStar, "torn-record", 18, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kScue, "clean", 18, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kScue, "torn-write", 18, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kScue, "dropped-persist", 18, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kScue, "reordered-persist", 18, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kScue, "adr-loss", 18, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kScue, "flip-data", 18, "salvaged", 8, 1, 1, 0xcbf29ce484222325ULL},
    {2, S::kScue, "flip-counter", 18, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kScue, "flip-node", 18, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kScue, "flip-mac", 18, "detected", 8, 0, 1, 0xb5008c17603bb763ULL},
    {2, S::kScue, "flip-record", 18, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kScue, "correctable-flip", 18, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kScue, "node-rollback", 18, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kScue, "subtree-rollback", 18, "detected", 8, 0, 1, 0xb5008c17603bb763ULL},
    {2, S::kScue, "nv-bypass-replay", 18, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kScue, "record-forgery", 18, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kScue, "torn-record", 18, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kSteins, "clean", 18, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kSteins, "torn-write", 18, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kSteins, "dropped-persist", 18, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kSteins, "reordered-persist", 18, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kSteins, "adr-loss", 18, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kSteins, "flip-data", 18, "salvaged", 8, 1, 1, 0xcbf29ce484222325ULL},
    {2, S::kSteins, "flip-counter", 18, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kSteins, "flip-node", 18, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kSteins, "flip-mac", 18, "detected", 8, 0, 1, 0xab9fda9d4fcf266eULL},
    {2, S::kSteins, "flip-record", 18, "detected", 8, 0, 1, 0x68c246a33358f236ULL},
    {2, S::kSteins, "correctable-flip", 18, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kSteins, "node-rollback", 18, "detected", 8, 0, 1, 0x747e01fc5982de1fULL},
    {2, S::kSteins, "subtree-rollback", 18, "detected", 8, 0, 1, 0xac331558cce65ce8ULL},
    {2, S::kSteins, "nv-bypass-replay", 18, "detected", 8, 0, 1, 0x747e01fc5982de1fULL},
    {2, S::kSteins, "record-forgery", 18, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kSteins, "torn-record", 18, "detected", 8, 0, 1, 0xc66b0e2bc1c9f135ULL},
    {3, S::kWriteBack, "clean", 25, "detected", 8, 0, 1, 0x8f23204e66d3e2ebULL},
    {3, S::kWriteBack, "torn-write", 25, "detected", 8, 0, 1, 0x8f23204e66d3e2ebULL},
    {3, S::kWriteBack, "dropped-persist", 25, "detected", 8, 0, 1, 0x8f23204e66d3e2ebULL},
    {3, S::kWriteBack, "reordered-persist", 25, "detected", 8, 0, 1, 0x8f23204e66d3e2ebULL},
    {3, S::kWriteBack, "adr-loss", 25, "detected", 8, 0, 1, 0x8f23204e66d3e2ebULL},
    {3, S::kWriteBack, "flip-data", 25, "detected", 8, 0, 1, 0x8f23204e66d3e2ebULL},
    {3, S::kWriteBack, "flip-counter", 25, "detected", 8, 0, 1, 0x8f23204e66d3e2ebULL},
    {3, S::kWriteBack, "flip-node", 25, "detected", 8, 0, 1, 0x8f23204e66d3e2ebULL},
    {3, S::kWriteBack, "flip-mac", 25, "detected", 8, 0, 1, 0x8f23204e66d3e2ebULL},
    {3, S::kWriteBack, "flip-record", 25, "detected", 8, 0, 1, 0x8f23204e66d3e2ebULL},
    {3, S::kWriteBack, "correctable-flip", 25, "detected", 8, 0, 1, 0x8f23204e66d3e2ebULL},
    {3, S::kWriteBack, "node-rollback", 25, "detected", 8, 0, 1, 0x8f23204e66d3e2ebULL},
    {3, S::kWriteBack, "subtree-rollback", 25, "detected", 8, 0, 1, 0x8f23204e66d3e2ebULL},
    {3, S::kWriteBack, "nv-bypass-replay", 25, "detected", 8, 0, 1, 0x8f23204e66d3e2ebULL},
    {3, S::kWriteBack, "record-forgery", 25, "detected", 8, 0, 1, 0x8f23204e66d3e2ebULL},
    {3, S::kWriteBack, "torn-record", 25, "detected", 8, 0, 1, 0x8f23204e66d3e2ebULL},
    {3, S::kAnubis, "clean", 25, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kAnubis, "torn-write", 25, "detected", 8, 0, 1, 0x7b0d28a33dfb6edfULL},
    {3, S::kAnubis, "dropped-persist", 25, "detected", 8, 0, 1, 0xa3b1c65b7f56a826ULL},
    {3, S::kAnubis, "reordered-persist", 25, "detected", 8, 0, 1, 0xa3b1c65b7f56a826ULL},
    {3, S::kAnubis, "adr-loss", 25, "detected", 8, 0, 1, 0xa3b1c65b7f56a826ULL},
    {3, S::kAnubis, "flip-data", 25, "salvaged", 8, 1, 1, 0xcbf29ce484222325ULL},
    {3, S::kAnubis, "flip-counter", 25, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kAnubis, "flip-node", 25, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kAnubis, "flip-mac", 25, "detected", 8, 0, 1, 0x7b0d27a33dfb6d2cULL},
    {3, S::kAnubis, "flip-record", 25, "salvaged", 8, 8, 1, 0xcbf29ce484222325ULL},
    {3, S::kAnubis, "correctable-flip", 25, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kAnubis, "node-rollback", 25, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kAnubis, "subtree-rollback", 25, "detected", 8, 0, 1, 0x71fa77a338ba2b69ULL},
    {3, S::kAnubis, "nv-bypass-replay", 25, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kAnubis, "record-forgery", 25, "detected", 8, 0, 1, 0xa3b1c65b7f56a826ULL},
    {3, S::kAnubis, "torn-record", 25, "detected", 8, 0, 1, 0xa3b1c65b7f56a826ULL},
    {3, S::kStar, "clean", 25, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kStar, "torn-write", 25, "detected", 8, 0, 1, 0x71fa77a338ba2b69ULL},
    {3, S::kStar, "dropped-persist", 25, "detected", 8, 0, 1, 0x27f9c4affabb0e02ULL},
    {3, S::kStar, "reordered-persist", 25, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kStar, "adr-loss", 25, "detected", 8, 0, 1, 0x27f9c4affabb0e02ULL},
    {3, S::kStar, "flip-data", 25, "salvaged", 8, 1, 1, 0xcbf29ce484222325ULL},
    {3, S::kStar, "flip-counter", 25, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kStar, "flip-node", 25, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kStar, "flip-mac", 25, "detected", 8, 0, 1, 0x7b0d27a33dfb6d2cULL},
    {3, S::kStar, "flip-record", 25, "detected", 8, 0, 1, 0x71f6f7a338b71c12ULL},
    {3, S::kStar, "correctable-flip", 25, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kStar, "node-rollback", 25, "detected", 8, 0, 1, 0x5689e8b64b124a3bULL},
    {3, S::kStar, "subtree-rollback", 25, "detected", 8, 0, 1, 0x27f9c4affabb0e02ULL},
    {3, S::kStar, "nv-bypass-replay", 25, "detected", 8, 0, 1, 0x5689e8b64b124a3bULL},
    {3, S::kStar, "record-forgery", 25, "detected", 8, 0, 1, 0x27f9c4affabb0e02ULL},
    {3, S::kStar, "torn-record", 25, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kScue, "clean", 25, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kScue, "torn-write", 25, "detected", 8, 0, 1, 0xb5008c17603bb763ULL},
    {3, S::kScue, "dropped-persist", 25, "detected", 8, 0, 1, 0x9c54fdb334a3400bULL},
    {3, S::kScue, "reordered-persist", 25, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kScue, "adr-loss", 25, "detected", 8, 0, 1, 0x9c54fdb334a3400bULL},
    {3, S::kScue, "flip-data", 25, "salvaged", 8, 1, 1, 0xcbf29ce484222325ULL},
    {3, S::kScue, "flip-counter", 25, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kScue, "flip-node", 25, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kScue, "flip-mac", 25, "detected", 8, 0, 1, 0xb5008c17603bb763ULL},
    {3, S::kScue, "flip-record", 25, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kScue, "correctable-flip", 25, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kScue, "node-rollback", 25, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kScue, "subtree-rollback", 25, "detected", 8, 0, 1, 0xb5008c17603bb763ULL},
    {3, S::kScue, "nv-bypass-replay", 25, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kScue, "record-forgery", 25, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kScue, "torn-record", 25, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kSteins, "clean", 25, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kSteins, "torn-write", 25, "detected", 8, 0, 1, 0xab9fda9d4fcf266eULL},
    {3, S::kSteins, "dropped-persist", 25, "detected", 8, 0, 1, 0xc66b0e2bc1c9f135ULL},
    {3, S::kSteins, "reordered-persist", 25, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kSteins, "adr-loss", 25, "detected", 8, 0, 1, 0xc66b0e2bc1c9f135ULL},
    {3, S::kSteins, "flip-data", 25, "salvaged", 8, 1, 1, 0xcbf29ce484222325ULL},
    {3, S::kSteins, "flip-counter", 25, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kSteins, "flip-node", 25, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kSteins, "flip-mac", 25, "detected", 8, 0, 1, 0xab9fda9d4fcf266eULL},
    {3, S::kSteins, "flip-record", 25, "detected", 8, 0, 1, 0x71f6f7a338b71c12ULL},
    {3, S::kSteins, "correctable-flip", 25, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kSteins, "node-rollback", 25, "detected", 8, 0, 1, 0x747e01fc5982de1fULL},
    {3, S::kSteins, "subtree-rollback", 25, "detected", 8, 0, 1, 0xac331558cce65ce8ULL},
    {3, S::kSteins, "nv-bypass-replay", 25, "detected", 8, 0, 1, 0x747e01fc5982de1fULL},
    {3, S::kSteins, "record-forgery", 25, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kSteins, "torn-record", 25, "detected", 8, 0, 1, 0xc66b0e2bc1c9f135ULL},
};

// LSM: ops 48 over 16 keys with the harness' small geometry, 16 MB NVM.
const StoreGolden kLsmGolden[] = {
    {1, S::kWriteBack, "clean", 14, "detected", 6, 0, 1, 0x8f23204e66d3e2ebULL},
    {1, S::kWriteBack, "torn-write", 14, "detected", 6, 0, 1, 0x8f23204e66d3e2ebULL},
    {1, S::kWriteBack, "dropped-persist", 14, "detected", 6, 0, 1, 0x8f23204e66d3e2ebULL},
    {1, S::kWriteBack, "reordered-persist", 14, "detected", 6, 0, 1, 0x8f23204e66d3e2ebULL},
    {1, S::kWriteBack, "adr-loss", 14, "detected", 6, 0, 1, 0x8f23204e66d3e2ebULL},
    {1, S::kWriteBack, "flip-data", 14, "detected", 6, 0, 1, 0x8f23204e66d3e2ebULL},
    {1, S::kWriteBack, "flip-counter", 14, "detected", 6, 0, 1, 0x8f23204e66d3e2ebULL},
    {1, S::kWriteBack, "flip-node", 14, "detected", 6, 0, 1, 0x8f23204e66d3e2ebULL},
    {1, S::kWriteBack, "flip-mac", 14, "detected", 6, 0, 1, 0x8f23204e66d3e2ebULL},
    {1, S::kWriteBack, "flip-record", 14, "detected", 6, 0, 1, 0x8f23204e66d3e2ebULL},
    {1, S::kWriteBack, "correctable-flip", 14, "detected", 6, 0, 1, 0x8f23204e66d3e2ebULL},
    {1, S::kWriteBack, "node-rollback", 14, "detected", 6, 0, 1, 0x8f23204e66d3e2ebULL},
    {1, S::kWriteBack, "subtree-rollback", 14, "detected", 6, 0, 1, 0x8f23204e66d3e2ebULL},
    {1, S::kWriteBack, "nv-bypass-replay", 14, "detected", 6, 0, 1, 0x8f23204e66d3e2ebULL},
    {1, S::kWriteBack, "record-forgery", 14, "detected", 6, 0, 1, 0x8f23204e66d3e2ebULL},
    {1, S::kWriteBack, "torn-record", 14, "detected", 6, 0, 1, 0x8f23204e66d3e2ebULL},
    {1, S::kWriteBack, "manifest-loss", 14, "detected", 6, 0, 1, 0x8f23204e66d3e2ebULL},
    {1, S::kAnubis, "clean", 14, "recovered", 6, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kAnubis, "torn-write", 14, "recovered", 6, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kAnubis, "dropped-persist", 14, "detected", 6, 0, 1, 0x68c249a33358f74fULL},
    {1, S::kAnubis, "reordered-persist", 14, "detected", 6, 0, 1, 0xa3b1c65b7f56a826ULL},
    {1, S::kAnubis, "adr-loss", 14, "detected", 6, 0, 1, 0xa3b1c65b7f56a826ULL},
    {1, S::kAnubis, "flip-data", 14, "detected", 6, 0, 1, 0x115b6d01dd970707ULL},
    {1, S::kAnubis, "flip-counter", 14, "recovered", 6, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kAnubis, "flip-node", 14, "recovered", 6, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kAnubis, "flip-mac", 14, "detected", 6, 0, 1, 0x68c24ba33358fab5ULL},
    {1, S::kAnubis, "flip-record", 14, "detected", 6, 0, 1, 0xd7aa02faf8a48c4dULL},
    {1, S::kAnubis, "correctable-flip", 14, "recovered", 6, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kAnubis, "node-rollback", 14, "recovered", 6, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kAnubis, "subtree-rollback", 14, "detected", 6, 0, 1, 0x68c24aa33358f902ULL},
    {1, S::kAnubis, "nv-bypass-replay", 14, "recovered", 6, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kAnubis, "record-forgery", 14, "detected", 6, 0, 1, 0xa3b1c65b7f56a826ULL},
    {1, S::kAnubis, "torn-record", 14, "detected", 6, 0, 1, 0xa3b1c65b7f56a826ULL},
    {1, S::kAnubis, "manifest-loss", 14, "detected", 6, 0, 1, 0x717a569b422dde73ULL},
    {1, S::kStar, "clean", 14, "recovered", 6, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kStar, "torn-write", 14, "detected", 6, 0, 1, 0x68c24ca33358fc68ULL},
    {1, S::kStar, "dropped-persist", 14, "detected", 6, 0, 1, 0x27f9c4affabb0e02ULL},
    {1, S::kStar, "reordered-persist", 14, "detected", 6, 0, 1, 0x27f9c4affabb0e02ULL},
    {1, S::kStar, "adr-loss", 14, "detected", 6, 0, 1, 0x27f9c4affabb0e02ULL},
    {1, S::kStar, "flip-data", 14, "detected", 6, 0, 1, 0x115b6d01dd970707ULL},
    {1, S::kStar, "flip-counter", 14, "recovered", 6, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kStar, "flip-node", 14, "recovered", 6, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kStar, "flip-mac", 14, "detected", 6, 0, 1, 0x68c24ba33358fab5ULL},
    {1, S::kStar, "flip-record", 14, "detected", 6, 0, 1, 0x68c552a3335b3c71ULL},
    {1, S::kStar, "correctable-flip", 14, "recovered", 6, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kStar, "node-rollback", 14, "detected", 6, 0, 1, 0x5689e7b64b124888ULL},
    {1, S::kStar, "subtree-rollback", 14, "detected", 6, 0, 1, 0x27f9c4affabb0e02ULL},
    {1, S::kStar, "nv-bypass-replay", 14, "detected", 6, 0, 1, 0x5689e7b64b124888ULL},
    {1, S::kStar, "record-forgery", 14, "detected", 6, 0, 1, 0x27f9c4affabb0e02ULL},
    {1, S::kStar, "torn-record", 14, "recovered", 6, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kStar, "manifest-loss", 14, "detected", 6, 0, 1, 0x717a569b422dde73ULL},
    {1, S::kScue, "clean", 14, "recovered", 6, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kScue, "torn-write", 14, "detected", 6, 0, 1, 0xb5008c17603bb763ULL},
    {1, S::kScue, "dropped-persist", 14, "detected", 6, 0, 1, 0x9c54fdb334a3400bULL},
    {1, S::kScue, "reordered-persist", 14, "detected", 6, 0, 1, 0x9c54fdb334a3400bULL},
    {1, S::kScue, "adr-loss", 14, "detected", 6, 0, 1, 0x9c54fdb334a3400bULL},
    {1, S::kScue, "flip-data", 14, "detected", 6, 0, 1, 0x115b6d01dd970707ULL},
    {1, S::kScue, "flip-counter", 14, "recovered", 6, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kScue, "flip-node", 14, "recovered", 6, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kScue, "flip-mac", 14, "detected", 6, 0, 1, 0xb5008c17603bb763ULL},
    {1, S::kScue, "flip-record", 14, "recovered", 6, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kScue, "correctable-flip", 14, "recovered", 6, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kScue, "node-rollback", 14, "recovered", 6, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kScue, "subtree-rollback", 14, "detected", 6, 0, 1, 0xb5008c17603bb763ULL},
    {1, S::kScue, "nv-bypass-replay", 14, "recovered", 6, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kScue, "record-forgery", 14, "recovered", 6, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kScue, "torn-record", 14, "recovered", 6, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kScue, "manifest-loss", 14, "detected", 6, 0, 1, 0x717a569b422dde73ULL},
    {1, S::kSteins, "clean", 14, "recovered", 6, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kSteins, "torn-write", 14, "detected", 6, 0, 1, 0xab9fda9d4fcf266eULL},
    {1, S::kSteins, "dropped-persist", 14, "detected", 6, 0, 1, 0xc66b0e2bc1c9f135ULL},
    {1, S::kSteins, "reordered-persist", 14, "detected", 6, 0, 1, 0xc66b0e2bc1c9f135ULL},
    {1, S::kSteins, "adr-loss", 14, "detected", 6, 0, 1, 0xc66b0e2bc1c9f135ULL},
    {1, S::kSteins, "flip-data", 14, "detected", 6, 0, 1, 0x115b6d01dd970707ULL},
    {1, S::kSteins, "flip-counter", 14, "recovered", 6, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kSteins, "flip-node", 14, "recovered", 6, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kSteins, "flip-mac", 14, "detected", 6, 0, 1, 0xab9fda9d4fcf266eULL},
    {1, S::kSteins, "flip-record", 14, "detected", 6, 0, 1, 0x68c552a3335b3c71ULL},
    {1, S::kSteins, "correctable-flip", 14, "recovered", 6, 0, 1, 0xcbf29ce484222325ULL},
    {1, S::kSteins, "node-rollback", 14, "detected", 6, 0, 1, 0x747e01fc5982de1fULL},
    {1, S::kSteins, "subtree-rollback", 14, "detected", 6, 0, 1, 0xac331558cce65ce8ULL},
    {1, S::kSteins, "nv-bypass-replay", 14, "detected", 6, 0, 1, 0x747e01fc5982de1fULL},
    {1, S::kSteins, "record-forgery", 14, "detected", 6, 0, 1, 0xc66b0e2bc1c9f135ULL},
    {1, S::kSteins, "torn-record", 14, "detected", 6, 0, 1, 0xc66b0e2bc1c9f135ULL},
    {1, S::kSteins, "manifest-loss", 14, "detected", 6, 0, 1, 0x717a569b422dde73ULL},
    {2, S::kWriteBack, "clean", 57, "detected", 8, 0, 1, 0x8f23204e66d3e2ebULL},
    {2, S::kWriteBack, "torn-write", 57, "detected", 8, 0, 1, 0x8f23204e66d3e2ebULL},
    {2, S::kWriteBack, "dropped-persist", 57, "detected", 8, 0, 1, 0x8f23204e66d3e2ebULL},
    {2, S::kWriteBack, "reordered-persist", 57, "detected", 8, 0, 1, 0x8f23204e66d3e2ebULL},
    {2, S::kWriteBack, "adr-loss", 57, "detected", 8, 0, 1, 0x8f23204e66d3e2ebULL},
    {2, S::kWriteBack, "flip-data", 57, "detected", 8, 0, 1, 0x8f23204e66d3e2ebULL},
    {2, S::kWriteBack, "flip-counter", 57, "detected", 8, 0, 1, 0x8f23204e66d3e2ebULL},
    {2, S::kWriteBack, "flip-node", 57, "detected", 8, 0, 1, 0x8f23204e66d3e2ebULL},
    {2, S::kWriteBack, "flip-mac", 57, "detected", 8, 0, 1, 0x8f23204e66d3e2ebULL},
    {2, S::kWriteBack, "flip-record", 57, "detected", 8, 0, 1, 0x8f23204e66d3e2ebULL},
    {2, S::kWriteBack, "correctable-flip", 57, "detected", 8, 0, 1, 0x8f23204e66d3e2ebULL},
    {2, S::kWriteBack, "node-rollback", 57, "detected", 8, 0, 1, 0x8f23204e66d3e2ebULL},
    {2, S::kWriteBack, "subtree-rollback", 57, "detected", 8, 0, 1, 0x8f23204e66d3e2ebULL},
    {2, S::kWriteBack, "nv-bypass-replay", 57, "detected", 8, 0, 1, 0x8f23204e66d3e2ebULL},
    {2, S::kWriteBack, "record-forgery", 57, "detected", 8, 0, 1, 0x8f23204e66d3e2ebULL},
    {2, S::kWriteBack, "torn-record", 57, "detected", 8, 0, 1, 0x8f23204e66d3e2ebULL},
    {2, S::kWriteBack, "manifest-loss", 57, "detected", 8, 0, 1, 0x8f23204e66d3e2ebULL},
    {2, S::kAnubis, "clean", 57, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kAnubis, "torn-write", 57, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kAnubis, "dropped-persist", 57, "detected", 8, 0, 1, 0xa3b1c65b7f56a826ULL},
    {2, S::kAnubis, "reordered-persist", 57, "detected", 8, 0, 1, 0xa3b1c65b7f56a826ULL},
    {2, S::kAnubis, "adr-loss", 57, "detected", 8, 0, 1, 0xa3b1c65b7f56a826ULL},
    {2, S::kAnubis, "flip-data", 57, "detected", 8, 0, 1, 0x3cb5963534919f8fULL},
    {2, S::kAnubis, "flip-counter", 57, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kAnubis, "flip-node", 57, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kAnubis, "flip-mac", 57, "detected", 8, 0, 1, 0x71f006a338b116e1ULL},
    {2, S::kAnubis, "flip-record", 57, "detected", 8, 0, 1, 0x01a9baecc6a2336aULL},
    {2, S::kAnubis, "correctable-flip", 57, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kAnubis, "node-rollback", 57, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kAnubis, "subtree-rollback", 57, "detected", 8, 0, 1, 0x68c54da3335b33f2ULL},
    {2, S::kAnubis, "nv-bypass-replay", 57, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kAnubis, "record-forgery", 57, "detected", 8, 0, 1, 0xa3b1c65b7f56a826ULL},
    {2, S::kAnubis, "torn-record", 57, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kAnubis, "manifest-loss", 57, "detected", 8, 0, 1, 0x717a569b422dde73ULL},
    {2, S::kStar, "clean", 57, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kStar, "torn-write", 57, "detected", 8, 0, 1, 0x68c24ba33358fab5ULL},
    {2, S::kStar, "dropped-persist", 57, "detected", 8, 0, 1, 0x27f9c4affabb0e02ULL},
    {2, S::kStar, "reordered-persist", 57, "detected", 8, 0, 1, 0x71f6f8a338b71dc5ULL},
    {2, S::kStar, "adr-loss", 57, "detected", 8, 0, 1, 0x27f9c4affabb0e02ULL},
    {2, S::kStar, "flip-data", 57, "detected", 8, 0, 1, 0x3cb5963534919f8fULL},
    {2, S::kStar, "flip-counter", 57, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kStar, "flip-node", 57, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kStar, "flip-mac", 57, "detected", 8, 0, 1, 0x71f006a338b116e1ULL},
    {2, S::kStar, "flip-record", 57, "detected", 8, 0, 1, 0x68c54ea3335b35a5ULL},
    {2, S::kStar, "correctable-flip", 57, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kStar, "node-rollback", 57, "detected", 8, 0, 1, 0x5689e7b64b124888ULL},
    {2, S::kStar, "subtree-rollback", 57, "detected", 8, 0, 1, 0x27f9c4affabb0e02ULL},
    {2, S::kStar, "nv-bypass-replay", 57, "detected", 8, 0, 1, 0x5689e7b64b124888ULL},
    {2, S::kStar, "record-forgery", 57, "detected", 8, 0, 1, 0x27f9c4affabb0e02ULL},
    {2, S::kStar, "torn-record", 57, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kStar, "manifest-loss", 57, "detected", 8, 0, 1, 0x717a569b422dde73ULL},
    {2, S::kScue, "clean", 57, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kScue, "torn-write", 57, "detected", 8, 0, 1, 0xb5008c17603bb763ULL},
    {2, S::kScue, "dropped-persist", 57, "detected", 8, 0, 1, 0x9c54fdb334a3400bULL},
    {2, S::kScue, "reordered-persist", 57, "detected", 8, 0, 1, 0x9c54fdb334a3400bULL},
    {2, S::kScue, "adr-loss", 57, "detected", 8, 0, 1, 0x9c54fdb334a3400bULL},
    {2, S::kScue, "flip-data", 57, "detected", 8, 0, 1, 0x3cb5963534919f8fULL},
    {2, S::kScue, "flip-counter", 57, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kScue, "flip-node", 57, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kScue, "flip-mac", 57, "detected", 8, 0, 1, 0xb5008c17603bb763ULL},
    {2, S::kScue, "flip-record", 57, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kScue, "correctable-flip", 57, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kScue, "node-rollback", 57, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kScue, "subtree-rollback", 57, "detected", 8, 0, 1, 0xb5008c17603bb763ULL},
    {2, S::kScue, "nv-bypass-replay", 57, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kScue, "record-forgery", 57, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kScue, "torn-record", 57, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kScue, "manifest-loss", 57, "detected", 8, 0, 1, 0x717a569b422dde73ULL},
    {2, S::kSteins, "clean", 57, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kSteins, "torn-write", 57, "detected", 8, 0, 1, 0xab9fda9d4fcf266eULL},
    {2, S::kSteins, "dropped-persist", 57, "detected", 8, 0, 1, 0xc66b0e2bc1c9f135ULL},
    {2, S::kSteins, "reordered-persist", 57, "detected", 8, 0, 1, 0xc66b0e2bc1c9f135ULL},
    {2, S::kSteins, "adr-loss", 57, "detected", 8, 0, 1, 0xc66b0e2bc1c9f135ULL},
    {2, S::kSteins, "flip-data", 57, "detected", 8, 0, 1, 0x3cb5963534919f8fULL},
    {2, S::kSteins, "flip-counter", 57, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kSteins, "flip-node", 57, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kSteins, "flip-mac", 57, "detected", 8, 0, 1, 0xab9fda9d4fcf266eULL},
    {2, S::kSteins, "flip-record", 57, "detected", 8, 0, 1, 0x68c54ea3335b35a5ULL},
    {2, S::kSteins, "correctable-flip", 57, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kSteins, "node-rollback", 57, "detected", 8, 0, 1, 0x747e01fc5982de1fULL},
    {2, S::kSteins, "subtree-rollback", 57, "detected", 8, 0, 1, 0xac331558cce65ce8ULL},
    {2, S::kSteins, "nv-bypass-replay", 57, "detected", 8, 0, 1, 0x747e01fc5982de1fULL},
    {2, S::kSteins, "record-forgery", 57, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kSteins, "torn-record", 57, "recovered", 8, 0, 1, 0xcbf29ce484222325ULL},
    {2, S::kSteins, "manifest-loss", 57, "detected", 8, 0, 1, 0x717a569b422dde73ULL},
    {3, S::kWriteBack, "clean", 55, "detected", 11, 0, 1, 0x8f23204e66d3e2ebULL},
    {3, S::kWriteBack, "torn-write", 55, "detected", 11, 0, 1, 0x8f23204e66d3e2ebULL},
    {3, S::kWriteBack, "dropped-persist", 55, "detected", 11, 0, 1, 0x8f23204e66d3e2ebULL},
    {3, S::kWriteBack, "reordered-persist", 55, "detected", 11, 0, 1, 0x8f23204e66d3e2ebULL},
    {3, S::kWriteBack, "adr-loss", 55, "detected", 11, 0, 1, 0x8f23204e66d3e2ebULL},
    {3, S::kWriteBack, "flip-data", 55, "detected", 11, 0, 1, 0x8f23204e66d3e2ebULL},
    {3, S::kWriteBack, "flip-counter", 55, "detected", 11, 0, 1, 0x8f23204e66d3e2ebULL},
    {3, S::kWriteBack, "flip-node", 55, "detected", 11, 0, 1, 0x8f23204e66d3e2ebULL},
    {3, S::kWriteBack, "flip-mac", 55, "detected", 11, 0, 1, 0x8f23204e66d3e2ebULL},
    {3, S::kWriteBack, "flip-record", 55, "detected", 11, 0, 1, 0x8f23204e66d3e2ebULL},
    {3, S::kWriteBack, "correctable-flip", 55, "detected", 11, 0, 1, 0x8f23204e66d3e2ebULL},
    {3, S::kWriteBack, "node-rollback", 55, "detected", 11, 0, 1, 0x8f23204e66d3e2ebULL},
    {3, S::kWriteBack, "subtree-rollback", 55, "detected", 11, 0, 1, 0x8f23204e66d3e2ebULL},
    {3, S::kWriteBack, "nv-bypass-replay", 55, "detected", 11, 0, 1, 0x8f23204e66d3e2ebULL},
    {3, S::kWriteBack, "record-forgery", 55, "detected", 11, 0, 1, 0x8f23204e66d3e2ebULL},
    {3, S::kWriteBack, "torn-record", 55, "detected", 11, 0, 1, 0x8f23204e66d3e2ebULL},
    {3, S::kWriteBack, "manifest-loss", 55, "detected", 11, 0, 1, 0x8f23204e66d3e2ebULL},
    {3, S::kAnubis, "clean", 55, "recovered", 11, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kAnubis, "torn-write", 55, "detected", 11, 0, 1, 0x71f003a338b111c8ULL},
    {3, S::kAnubis, "dropped-persist", 55, "detected", 11, 0, 1, 0xa3b1c65b7f56a826ULL},
    {3, S::kAnubis, "reordered-persist", 55, "detected", 11, 0, 1, 0xa3b1c65b7f56a826ULL},
    {3, S::kAnubis, "adr-loss", 55, "detected", 11, 0, 1, 0xa3b1c65b7f56a826ULL},
    {3, S::kAnubis, "flip-data", 55, "detected", 11, 0, 1, 0x04e826066662948eULL},
    {3, S::kAnubis, "flip-counter", 55, "recovered", 11, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kAnubis, "flip-node", 55, "recovered", 11, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kAnubis, "flip-mac", 55, "detected", 11, 0, 1, 0x71f009a338b11bfaULL},
    {3, S::kAnubis, "flip-record", 55, "detected", 11, 0, 1, 0xc4feb21ab53c091cULL},
    {3, S::kAnubis, "correctable-flip", 55, "recovered", 11, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kAnubis, "node-rollback", 55, "recovered", 11, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kAnubis, "subtree-rollback", 55, "detected", 11, 0, 1, 0x68c54ea3335b35a5ULL},
    {3, S::kAnubis, "nv-bypass-replay", 55, "recovered", 11, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kAnubis, "record-forgery", 55, "detected", 11, 0, 1, 0xa3b1c65b7f56a826ULL},
    {3, S::kAnubis, "torn-record", 55, "detected", 11, 0, 1, 0xa3b1c65b7f56a826ULL},
    {3, S::kAnubis, "manifest-loss", 55, "detected", 11, 0, 1, 0x717a569b422dde73ULL},
    {3, S::kStar, "clean", 55, "recovered", 11, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kStar, "torn-write", 55, "detected", 11, 0, 1, 0x71f004a338b1137bULL},
    {3, S::kStar, "dropped-persist", 55, "detected", 11, 0, 1, 0x27f9c4affabb0e02ULL},
    {3, S::kStar, "reordered-persist", 55, "detected", 11, 0, 1, 0x68c24ca33358fc68ULL},
    {3, S::kStar, "adr-loss", 55, "detected", 11, 0, 1, 0x27f9c4affabb0e02ULL},
    {3, S::kStar, "flip-data", 55, "detected", 11, 0, 1, 0x04e826066662948eULL},
    {3, S::kStar, "flip-counter", 55, "recovered", 11, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kStar, "flip-node", 55, "recovered", 11, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kStar, "flip-mac", 55, "detected", 11, 0, 1, 0x71f009a338b11bfaULL},
    {3, S::kStar, "flip-record", 55, "detected", 11, 0, 1, 0x68c54ea3335b35a5ULL},
    {3, S::kStar, "correctable-flip", 55, "recovered", 11, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kStar, "node-rollback", 55, "detected", 11, 0, 1, 0x5689e7b64b124888ULL},
    {3, S::kStar, "subtree-rollback", 55, "detected", 11, 0, 1, 0x27f9c4affabb0e02ULL},
    {3, S::kStar, "nv-bypass-replay", 55, "detected", 11, 0, 1, 0x5689e7b64b124888ULL},
    {3, S::kStar, "record-forgery", 55, "detected", 11, 0, 1, 0x27f9c4affabb0e02ULL},
    {3, S::kStar, "torn-record", 55, "recovered", 11, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kStar, "manifest-loss", 55, "detected", 11, 0, 1, 0x717a569b422dde73ULL},
    {3, S::kScue, "clean", 55, "recovered", 11, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kScue, "torn-write", 55, "detected", 11, 0, 1, 0xb5008c17603bb763ULL},
    {3, S::kScue, "dropped-persist", 55, "detected", 11, 0, 1, 0x9c54fdb334a3400bULL},
    {3, S::kScue, "reordered-persist", 55, "detected", 11, 0, 1, 0x9c54fdb334a3400bULL},
    {3, S::kScue, "adr-loss", 55, "detected", 11, 0, 1, 0x9c54fdb334a3400bULL},
    {3, S::kScue, "flip-data", 55, "detected", 11, 0, 1, 0x04e826066662948eULL},
    {3, S::kScue, "flip-counter", 55, "recovered", 11, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kScue, "flip-node", 55, "recovered", 11, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kScue, "flip-mac", 55, "detected", 11, 0, 1, 0xb5008c17603bb763ULL},
    {3, S::kScue, "flip-record", 55, "recovered", 11, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kScue, "correctable-flip", 55, "recovered", 11, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kScue, "node-rollback", 55, "recovered", 11, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kScue, "subtree-rollback", 55, "detected", 11, 0, 1, 0xb5008c17603bb763ULL},
    {3, S::kScue, "nv-bypass-replay", 55, "recovered", 11, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kScue, "record-forgery", 55, "recovered", 11, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kScue, "torn-record", 55, "recovered", 11, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kScue, "manifest-loss", 55, "detected", 11, 0, 1, 0x717a569b422dde73ULL},
    {3, S::kSteins, "clean", 55, "recovered", 11, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kSteins, "torn-write", 55, "detected", 11, 0, 1, 0xab9fda9d4fcf266eULL},
    {3, S::kSteins, "dropped-persist", 55, "detected", 11, 0, 1, 0xc66b0e2bc1c9f135ULL},
    {3, S::kSteins, "reordered-persist", 55, "detected", 11, 0, 1, 0xc66b0e2bc1c9f135ULL},
    {3, S::kSteins, "adr-loss", 55, "detected", 11, 0, 1, 0xc66b0e2bc1c9f135ULL},
    {3, S::kSteins, "flip-data", 55, "detected", 11, 0, 1, 0x04e826066662948eULL},
    {3, S::kSteins, "flip-counter", 55, "recovered", 11, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kSteins, "flip-node", 55, "recovered", 11, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kSteins, "flip-mac", 55, "detected", 11, 0, 1, 0xab9fda9d4fcf266eULL},
    {3, S::kSteins, "flip-record", 55, "detected", 11, 0, 1, 0x68c54ea3335b35a5ULL},
    {3, S::kSteins, "correctable-flip", 55, "recovered", 11, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kSteins, "node-rollback", 55, "detected", 11, 0, 1, 0x747e01fc5982de1fULL},
    {3, S::kSteins, "subtree-rollback", 55, "detected", 11, 0, 1, 0xac331558cce65ce8ULL},
    {3, S::kSteins, "nv-bypass-replay", 55, "detected", 11, 0, 1, 0x747e01fc5982de1fULL},
    {3, S::kSteins, "record-forgery", 55, "recovered", 11, 0, 1, 0xcbf29ce484222325ULL},
    {3, S::kSteins, "torn-record", 55, "detected", 11, 0, 1, 0xc66b0e2bc1c9f135ULL},
    {3, S::kSteins, "manifest-loss", 55, "detected", 11, 0, 1, 0x717a569b422dde73ULL},
};

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

SystemConfig golden_config() {
  SystemConfig cfg = small_config();
  cfg.nvm.capacity_bytes = 16ULL << 20;
  return cfg;
}

/// One golden trial shape: a fault class, an adversary scenario or a
/// manifest loss (or none: the clean crash).
struct Variant {
  std::string label;
  FaultClass fault = FaultClass::kNone;
  std::optional<AdversaryScenario> adversary;
  bool manifest_loss = false;
};

std::vector<Variant> golden_variants(bool lsm) {
  std::vector<Variant> out{{"clean", FaultClass::kNone, std::nullopt}};
  for (const FaultClass c : all_fault_classes()) {
    out.push_back({fault_class_name(c), c, std::nullopt});
  }
  for (const AdversaryScenario a :
       {AdversaryScenario::kNodeRollback, AdversaryScenario::kSubtreeRollback,
        AdversaryScenario::kNvBypassReplay, AdversaryScenario::kRecordForgery,
        AdversaryScenario::kTornRecord}) {
    out.push_back({adversary_scenario_name(a), FaultClass::kNone, a});
  }
  if (lsm) out.push_back({"manifest-loss", FaultClass::kNone, std::nullopt, true});
  return out;
}

template <std::size_t N, typename Run>
void check_store_golden(const StoreGolden (&golden)[N], bool lsm, Run run) {
  std::size_t i = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (const Scheme scheme : kAllSchemes) {
      for (const Variant& v : golden_variants(lsm)) {
        ASSERT_LT(i, N);
        const StoreGolden& g = golden[i++];
        ASSERT_EQ(g.seed, seed);
        ASSERT_EQ(g.scheme, scheme);
        ASSERT_EQ(std::string(g.variant), v.label);
        CrashOptions opt;
        opt.seed = seed;
        opt.fault_class = v.fault;
        opt.fault_seed = seed * 1000 + static_cast<std::uint64_t>(v.fault);
        opt.adversary = v.adversary;
        opt.adversary_seed = seed * 7919;
        const CrashReport r = run(scheme, opt, v.manifest_loss);
        const std::string why = v.label + " " + crash_why(r);
        EXPECT_EQ(r.crash_at, g.crash_at) << why;
        EXPECT_STREQ(fault_verdict_name(crash_verdict(r, scheme)), g.verdict) << why;
        EXPECT_EQ(r.committed_keys, g.committed_keys) << why;
        EXPECT_EQ(r.keys_unavailable, g.keys_unavailable) << why;
        EXPECT_EQ(r.recovery_attempts, g.recovery_attempts) << why;
        EXPECT_EQ(fnv1a(r.detail), g.detail_fnv) << why;
      }
    }
  }
  EXPECT_EQ(i, N);
}

TEST(CrashHarnessGolden, KvVerdicts) {
  check_store_golden(kKvGolden, false, [](Scheme scheme, const CrashOptions& base, bool) {
    kv::KvCrashOptions opt;
    static_cast<CrashOptions&>(opt) = base;
    opt.ops = 24;
    return kv::run_kv_crash_validation(golden_config(), scheme, opt);
  });
}

TEST(CrashHarnessGolden, LsmVerdicts) {
  check_store_golden(kLsmGolden, true,
                     [](Scheme scheme, const CrashOptions& base, bool manifest_loss) {
                       lsm::LsmCrashOptions opt;
                       static_cast<CrashOptions&>(opt) = base;
                       opt.ops = 48;
                       opt.manifest_loss = manifest_loss;
                       return lsm::run_lsm_crash_validation(golden_config(), scheme, opt);
                     });
}

TEST(CrashHarnessGolden, ServingVerdicts) {
  struct ServingGolden {
    Scheme scheme;
    std::uint64_t crash_at;
    const char* verdict;
    std::uint64_t durable_digest;
    std::uint64_t committed_slots;
  };
  const ServingGolden golden[] = {
      {S::kWriteBack, 2500, "detected", 0x6880d8035db58480ULL, 0},
      {S::kWriteBack, 3536, "detected", 0x366f92fffd8e9821ULL, 0},
      {S::kWriteBack, 7777, "detected", 0xd67bb91ed2c24d0bULL, 0},
      {S::kAnubis, 2500, "recovered", 0x6880d8035db58480ULL, 1200},
      {S::kAnubis, 3536, "recovered", 0x366f92fffd8e9821ULL, 1200},
      {S::kAnubis, 7777, "recovered", 0xd67bb91ed2c24d0bULL, 1200},
      {S::kStar, 2500, "recovered", 0x6880d8035db58480ULL, 1200},
      {S::kStar, 3536, "recovered", 0x366f92fffd8e9821ULL, 1200},
      {S::kStar, 7777, "recovered", 0xd67bb91ed2c24d0bULL, 1200},
      {S::kScue, 2500, "recovered", 0x6880d8035db58480ULL, 1200},
      {S::kScue, 3536, "recovered", 0x366f92fffd8e9821ULL, 1200},
      {S::kScue, 7777, "recovered", 0xd67bb91ed2c24d0bULL, 1200},
      {S::kSteins, 2500, "recovered", 0x6880d8035db58480ULL, 1200},
      {S::kSteins, 3536, "recovered", 0x366f92fffd8e9821ULL, 1200},
      {S::kSteins, 7777, "recovered", 0xd67bb91ed2c24d0bULL, 1200},
  };
  kv::ServingConfig scfg;
  scfg.mix = kv::Mix::kA;
  scfg.clients = 3;
  scfg.shards = 4;
  scfg.ops = 6000;
  scfg.keys = 1200;
  scfg.slots = std::size_t{1} << 12;
  scfg.seed = 11;
  scfg.epoch_ops = 512;
  scfg.group_commit_window = 64;
  for (const ServingGolden& g : golden) {
    kv::ServingCrashOptions opt;
    opt.crash_at = g.crash_at;
    const CrashReport r = kv::run_serving_crash(small_config(), g.scheme, scfg, opt);
    EXPECT_STREQ(fault_verdict_name(crash_verdict(r, g.scheme)), g.verdict) << crash_why(r);
    EXPECT_EQ(r.durable_digest, g.durable_digest) << crash_why(r);
    EXPECT_EQ(r.committed_keys, g.committed_slots) << crash_why(r);
  }
}

}  // namespace
}  // namespace steins
