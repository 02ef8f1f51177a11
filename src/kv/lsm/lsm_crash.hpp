// Crash-recovery validation for the LSM engine: the engine's adapter to the
// shared crash harness (fault/crash_harness.hpp).
//
// The committed model is exact: an operation commits at its WAL record's
// last persist barrier (LsmStore's commit hook fires precisely there), and
// flushes/compactions/manifest installs never change committed contents —
// they only restructure it. So for every crash boundary, recovery must
// reproduce the commit-hook model bit for bit (or, under an injected
// fault, fail *detectably* / salvage with typed unavailability). The
// engine's own refusal to reopen a damaged image counts as detection.
//
// A boundary sweep covers every stage of the engine's persist protocol —
// "wal", "flush-data", "flush-footer", "compact-data", "compact-footer",
// "manifest-data", "manifest-commit" — which is exactly the fault-campaign
// hook-point list from DESIGN.md §15: torn WAL tail, crash mid-flush, crash
// mid-compaction, manifest swap.
#pragma once

#include <cstdint>

#include "common/config.hpp"
#include "fault/crash_harness.hpp"

namespace steins::lsm {

struct LsmCrashOptions : CrashOptions {
  LsmCrashOptions() { ops = 96; }

  /// Overwrite both manifest replicas with garbage after the crash (the
  /// "manifest loss" hook point). Recovery must *detect* this (open()
  /// returning kIntegrity), never serve from it.
  bool manifest_loss = false;
};

/// Run the validation once at opt.crash_at (or a seeded-random boundary).
CrashReport run_lsm_crash_validation(const SystemConfig& base_cfg, Scheme scheme,
                                     const LsmCrashOptions& opt);

/// Sweep the crash boundaries with run_crash_matrix (stride 1 = every
/// persist barrier of the script).
CrashMatrix run_lsm_crash_matrix(const SystemConfig& base_cfg, Scheme scheme,
                                 const LsmCrashOptions& opt, std::uint64_t stride,
                                 unsigned jobs);

}  // namespace steins::lsm
