// Crash-at-persist-boundary validation for the LSM engine (fast lane:
// strided sweep; the exhaustive stride-1 matrix and the fault-folded
// variants live in test_lsm_campaign.cpp).
#include <gtest/gtest.h>

#include <string>

#include "kv/lsm/lsm_crash.hpp"
#include "test_util.hpp"

namespace steins::lsm {
namespace {

using testutil::crash_passes;
using testutil::crash_why;
using testutil::small_config;

TEST(LsmCrash, StridedSweepHasNoSilentCorruptionPerScheme) {
  LsmCrashOptions opt;
  opt.ops = 72;
  for (const Scheme scheme : {Scheme::kWriteBack, Scheme::kAnubis, Scheme::kStar,
                              Scheme::kSteins, Scheme::kScue}) {
    const CrashMatrix m =
        run_lsm_crash_matrix(small_config(), scheme, opt, /*stride=*/17, /*jobs=*/1);
    EXPECT_GT(m.total(), 4u);
    EXPECT_EQ(m.silent, 0u) << "scheme " << static_cast<int>(scheme) << "\n"
                            << m.failure_lines();
    if (scheme == Scheme::kWriteBack) {
      EXPECT_EQ(m.detected, m.total());  // WB: every crash detected unrecoverable
    } else {
      EXPECT_EQ(m.recovered + m.salvaged, m.total());
    }
  }
}

TEST(LsmCrash, SweepCoversEveryPersistStage) {
  LsmCrashOptions opt;
  opt.ops = 72;
  const CrashMatrix m =
      run_lsm_crash_matrix(small_config(), Scheme::kSteins, opt, 1, /*jobs=*/4);
  // The script + small geometry must hit every protocol stage, or the
  // sweep proves nothing about the stages it missed.
  for (const char* stage : {"wal", "flush-data", "flush-footer", "compact-data",
                            "compact-footer", "manifest-data", "manifest-commit"}) {
    EXPECT_TRUE(m.stage_trials.contains(stage)) << "stage " << stage << " never hit";
  }
  EXPECT_EQ(m.silent, 0u) << m.failure_lines();
}

TEST(LsmCrash, SingleBoundaryReportsReproduce) {
  LsmCrashOptions opt;
  opt.ops = 48;
  opt.crash_at = 37;
  const CrashReport a = run_lsm_crash_validation(small_config(), Scheme::kSteins, opt);
  const CrashReport b = run_lsm_crash_validation(small_config(), Scheme::kSteins, opt);
  EXPECT_TRUE(crash_passes(a, Scheme::kSteins)) << crash_why(a);
  EXPECT_EQ(a.crash_at, b.crash_at);
  EXPECT_EQ(a.crash_stage, b.crash_stage);
  EXPECT_EQ(a.committed_keys, b.committed_keys);
  EXPECT_EQ(a.total_boundaries, b.total_boundaries);
  EXPECT_EQ(a.repro(), b.repro());
  EXPECT_EQ(crash_verdict(a, Scheme::kSteins), crash_verdict(b, Scheme::kSteins));
}

TEST(LsmCrash, MatrixIsDeterministicAcrossJobCounts) {
  LsmCrashOptions opt;
  opt.ops = 48;
  const CrashMatrix seq =
      run_lsm_crash_matrix(small_config(), Scheme::kSteins, opt, 29, /*jobs=*/1);
  const CrashMatrix par =
      run_lsm_crash_matrix(small_config(), Scheme::kSteins, opt, 29, /*jobs=*/4);
  EXPECT_EQ(seq.total(), par.total());
  EXPECT_EQ(seq.recovered, par.recovered);
  EXPECT_EQ(seq.detected, par.detected);
  EXPECT_EQ(seq.salvaged, par.salvaged);
  EXPECT_EQ(seq.silent, par.silent);
  EXPECT_EQ(seq.stage_trials, par.stage_trials);
}

TEST(LsmCrash, ManifestLossIsDetectedNeverServed) {
  LsmCrashOptions opt;
  opt.ops = 48;
  opt.crash_at = CrashOptions::kRandomBoundary;
  opt.manifest_loss = true;
  for (const Scheme scheme :
       {Scheme::kAnubis, Scheme::kStar, Scheme::kSteins, Scheme::kScue}) {
    const CrashReport r = run_lsm_crash_validation(small_config(), scheme, opt);
    EXPECT_TRUE(crash_passes(r, scheme)) << crash_why(r);
    EXPECT_TRUE(r.fault_detected) << "served a lost manifest: " << crash_why(r);
    EXPECT_EQ(crash_verdict(r, scheme), FaultVerdict::kDetected) << crash_why(r);
  }
}

TEST(LsmCrash, TornWalTailIsReportedOnMidWalCrashes) {
  // Sweep a window of boundaries and require that at least one mid-WAL
  // crash produced a reopen that saw (and discarded) a torn tail.
  LsmCrashOptions opt;
  opt.ops = 48;
  bool saw_torn = false;
  for (std::uint64_t b = 10; b < 60 && !saw_torn; ++b) {
    opt.crash_at = b;
    const CrashReport r = run_lsm_crash_validation(small_config(), Scheme::kSteins, opt);
    ASSERT_TRUE(crash_passes(r, Scheme::kSteins)) << crash_why(r);
    if (r.crash_stage == "wal" && r.wal_torn) saw_torn = true;
  }
  EXPECT_TRUE(saw_torn);
}

}  // namespace
}  // namespace steins::lsm
