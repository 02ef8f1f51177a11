// Crash-recovery validation for the KV service: the KV store's adapter to
// the shared crash harness (fault/crash_harness.hpp).
//
// The ordered persist protocol guarantees the recovered image equals the
// committed model EXACTLY: an in-flight operation's record write is
// invisible until its commit-word persist, and between operations the
// store holds no unpersisted dirty state. The model therefore follows the
// operations that *returned*. A corrupt record the store reports as
// KvCorruption is a failed diff.
#pragma once

#include <cstdint>

#include "common/config.hpp"
#include "fault/crash_harness.hpp"

namespace steins::kv {

struct KvCrashOptions : CrashOptions {
  std::size_t slots = 64;  // store capacity (power of two)
};

/// Run the validation once at opt.crash_at (or a seeded-random boundary).
/// `base_cfg` supplies the scheme configuration; its NVM capacity must
/// cover the layout implied by `opt.slots`.
CrashReport run_kv_crash_validation(const SystemConfig& base_cfg, Scheme scheme,
                                    const KvCrashOptions& opt);

/// Sweep the crash boundaries with run_crash_matrix (stride 1 = every
/// persist barrier of the script).
CrashMatrix run_kv_crash_matrix(const SystemConfig& base_cfg, Scheme scheme,
                                const KvCrashOptions& opt, std::uint64_t stride,
                                unsigned jobs);

}  // namespace steins::kv
