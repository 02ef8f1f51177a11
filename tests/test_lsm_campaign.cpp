// LSM crash campaign (ctest label: campaign): the exhaustive
// crash-at-every-persist-boundary matrix for every scheme, plus the
// hardware-fault-folded and manifest-loss variants. Silent corruption
// must be zero everywhere — detection, exact recovery, and verified
// salvage are the only legal outcomes.
#include <gtest/gtest.h>

#include <string>

#include "kv/lsm/lsm_crash.hpp"
#include "test_util.hpp"

namespace steins::lsm {
namespace {

using testutil::crash_passes;
using testutil::crash_why;
using testutil::small_config;

TEST(LsmCampaign, ExhaustiveBoundarySweepEveryScheme) {
  LsmCrashOptions opt;
  opt.ops = 96;
  for (const Scheme scheme : {Scheme::kWriteBack, Scheme::kAnubis, Scheme::kStar,
                              Scheme::kSteins, Scheme::kScue}) {
    const CrashMatrix m = run_lsm_crash_matrix(small_config(), scheme, opt,
                                                  /*stride=*/1, /*jobs=*/4);
    EXPECT_EQ(m.silent, 0u) << "scheme " << static_cast<int>(scheme) << "\n"
                            << m.failure_lines();
    EXPECT_EQ(m.total(), m.total_boundaries + 1);
    // Every protocol stage must appear in the sweep.
    for (const char* stage :
         {"wal", "flush-data", "flush-footer", "compact-data", "compact-footer",
          "manifest-data", "manifest-commit"}) {
      EXPECT_TRUE(m.stage_trials.contains(stage))
          << "scheme " << static_cast<int>(scheme) << " never hit " << stage;
    }
  }
}

TEST(LsmCampaign, FaultFoldedCrashesNeverSilent) {
  for (const FaultClass cls :
       {FaultClass::kTornWrite, FaultClass::kDroppedPersist,
        FaultClass::kReorderedPersist, FaultClass::kAdrLoss,
        FaultClass::kBitFlipData, FaultClass::kCorrectableFlip}) {
    for (const Scheme scheme :
         {Scheme::kAnubis, Scheme::kStar, Scheme::kSteins, Scheme::kScue}) {
      for (std::uint64_t trial = 0; trial < 4; ++trial) {
        LsmCrashOptions opt;
        opt.ops = 64;
        opt.seed = trial + 1;
        opt.fault_class = cls;
        opt.fault_seed = trial * 1000 + 7;
        const CrashReport r = run_lsm_crash_validation(small_config(), scheme, opt);
        EXPECT_TRUE(crash_passes(r, scheme)) << crash_why(r);
        EXPECT_NE(crash_verdict(r, scheme), FaultVerdict::kSilentCorruption);
      }
    }
  }
}

TEST(LsmCampaign, ManifestLossSweepAlwaysDetected) {
  for (const Scheme scheme :
       {Scheme::kAnubis, Scheme::kStar, Scheme::kSteins, Scheme::kScue}) {
    for (std::uint64_t boundary = 0; boundary < 200; boundary += 23) {
      LsmCrashOptions opt;
      opt.ops = 64;
      opt.crash_at = boundary;
      opt.manifest_loss = true;
      const CrashReport r = run_lsm_crash_validation(small_config(), scheme, opt);
      EXPECT_TRUE(crash_passes(r, scheme)) << crash_why(r);
      EXPECT_EQ(crash_verdict(r, scheme), FaultVerdict::kDetected) << crash_why(r);
    }
  }
}

}  // namespace
}  // namespace steins::lsm
