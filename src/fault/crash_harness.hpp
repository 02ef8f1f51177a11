// One crash harness for the KV and LSM stores (DESIGN.md §11, "Crash
// harness"): run a deterministic op script on a fresh store, kill it at a
// persist boundary, recover, reopen the store and diff it against the
// model of committed operations. The harness owns the script, boundary
// choice, fault/adversary/nested-crash arming, recovery classification,
// diffs and the boundary matrix; a store plugs in through CrashWorkload.
// Every trial ends in one FaultVerdict (crash_verdict).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/status.hpp"
#include "fault/adversary.hpp"
#include "fault/campaign.hpp"
#include "fault/fault.hpp"
#include "secure/secure_memory.hpp"

namespace steins {

class System;

/// The crash options every store shares; store option structs derive from
/// this and add their own fields.
struct CrashOptions {
  static constexpr std::uint64_t kRandomBoundary = ~std::uint64_t{0};

  std::uint64_t ops = 64;        // scripted put/erase/get operations
  std::uint64_t keys = 16;       // key universe the script draws from
  std::size_t value_bytes = 24;  // payload size per value
  std::uint64_t seed = 1;        // script + boundary-choice seed
  std::uint64_t crash_at = kRandomBoundary;  // persist barrier index to die at

  // Optional hardware fault folded into the crash (kNone = clean crash).
  // The plan derives from (fault_seed, crash_at), so a report reproduces
  // from its own fields alone.
  FaultClass fault_class = FaultClass::kNone;
  std::uint64_t fault_seed = 0;

  /// Nested recovery crash (DESIGN.md §17): crash the scheme's recovery at
  /// this 1-based persist boundary (0 = off) and re-enter it through the
  /// System's bounded retry loop; optionally re-arm on every retry.
  std::uint64_t recovery_crash_boundary = 0;
  bool recovery_crash_rearm = false;
  RecoveryRetryPolicy retry_policy;

  // Optional adversarial mutation folded into the crash: the adversary
  // snapshots the persisted image (after a metadata flush) at the midpoint
  // persist barrier and applies the scenario's rollback/forgery/tear
  // between the crash drain and recovery. Runtime-only scenarios
  // (data-replay, wear-out) are no-ops here.
  std::optional<AdversaryScenario> adversary;
  std::uint64_t adversary_seed = 0;
};

/// The outcome of one store crash trial (also of the serving crash).
struct CrashReport {
  // What ran: enough to reproduce the trial (repro()).
  std::string store;                // "kv", "lsm", "serving"
  std::string scheme;               // scheme label, e.g. "Steins-GC"
  std::uint64_t seed = 0;           // script (serving: workload) seed
  std::uint64_t total_boundaries = 0;  // persist barriers (serving: accesses)
  std::uint64_t crash_at = 0;       // boundary the run was killed before
  std::string crash_stage;          // store stage of the fatal boundary
  FaultClass fault_class = FaultClass::kNone;
  std::uint64_t fault_seed = 0;
  std::optional<AdversaryScenario> adversary;
  std::uint64_t adversary_seed = 0;

  // What recovery said.
  bool recovery_supported = false;  // scheme claims post-crash recovery
  bool recovery_ok = false;         // recovery ran clean (no attack flagged)
  double recovery_seconds = 0.0;    // modeled recovery time
  std::uint64_t recovery_attempts = 1;  // re-entries the recovery took
  bool recovery_gave_up = false;        // retry budget exhausted (never OK)
  bool faulted = false;             // a fault/adversary was armed at the crash
  bool fault_detected = false;      // an integrity check caught the fault
  bool adversary_injected = false;  // the scenario's mutation actually landed
  std::string adversary_events;     // what the adversary mutated

  // How the reopened store compared with the committed model.
  std::uint64_t committed_keys = 0;   // model size at the crash point
  bool verified = false;              // recovered image == committed model
  bool salvaged = false;              // recovery degraded but attack-free
  bool degraded_verified = false;     // every readable key matched the model
  std::uint64_t keys_unavailable = 0;  // committed keys behind typed errors
  std::string detail;                 // first mismatch / failure description

  // Store telemetry.
  bool wal_torn = false;            // LSM: reopen found a torn WAL tail
  std::uint64_t flushes = 0;        // LSM: engine flushes before the crash
  std::uint64_t compactions = 0;    // LSM: engine compactions before the crash
  std::uint64_t durable_digest = 0;  // serving: FNV-1a of the durable commit words

  /// One line naming everything that reproduces this trial: store, scheme,
  /// seed, crash boundary and stage, fault class and seed, adversary
  /// scenario and seed.
  std::string repro() const;
};

/// The verdict of one crash trial (mapping in DESIGN.md §11).
FaultVerdict crash_verdict(const CrashReport& report, Scheme scheme);

/// How a RecoveryResult ends the recovery step, in precedence order; every
/// crash path classifies its recovery through this.
enum class RecoveryClass {
  kGaveUp,          // nested crashes exhausted the retry budget
  kUnsupported,     // the scheme has no post-crash recovery (WB)
  kInternalError,   // recovery itself failed (a bug, never a device property)
  kAttackDetected,  // an integrity check fired during recovery
  kDegraded,        // salvage: something was quarantined, no attack
  kClean,
};

RecoveryClass classify_recovery(const RecoveryResult& r);

/// Copy `r` into the report and classify it: false when recovery settled
/// the trial (`detail` says how), true when the image must be diffed.
bool record_recovery(const RecoveryResult& r, CrashReport& report);

/// Committed key -> value.
using CrashModel = std::map<std::uint64_t, std::string>;

/// Called immediately before each persist barrier with its stage label and
/// index; the harness throws from it to crash the store.
using CrashPersistHook = std::function<void(const char* stage, std::uint64_t index)>;

/// One store under crash test, for one trial: created fresh to run the
/// script, crashed, then reopened over the recovered image and read back.
class CrashWorkload {
 public:
  CrashWorkload() = default;
  CrashWorkload(const CrashWorkload&) = delete;
  CrashWorkload& operator=(const CrashWorkload&) = delete;
  virtual ~CrashWorkload() = default;

  // 1. Open a fresh store over `sys` whose barriers call `hook`, and run the
  //    script. Returned operations enter `model`; a store whose operations
  //    commit before they return adds them to `model` at that point.
  virtual Status create(System& sys, CrashPersistHook hook, CrashModel& model) = 0;
  virtual void put(std::uint64_t key, const std::string& value) = 0;
  virtual void erase(std::uint64_t key) = 0;
  virtual std::optional<std::string> get(std::uint64_t key) = 0;
  /// The script stopped (ran out or crashed): note store counters.
  virtual void close(CrashReport& /*report*/) {}

  // 2. Damage to the store's own region after recovery, before reopen
  //    (CrashStoreSpec::mutates_image).
  virtual void mutate_image(System& /*sys*/) {}

  // 3. Reopen over the recovered image (false: the reopen itself settled
  //    the trial, the report says how) and read the store back.
  virtual bool reopen(System& sys, const RecoveryResult& r, const CrashModel& model,
                      CrashReport& report) = 0;
  virtual CrashModel dump() = 0;
  virtual Expected<std::optional<std::string>> try_get(std::uint64_t key) = 0;
  /// Every readable pair, or nullopt when the store cannot vouch that
  /// nothing uncommitted is readable.
  virtual std::optional<CrashModel> dump_degraded() = 0;
  /// True when `e`, thrown while reading the reopened store, is the store's
  /// own corruption report: a failed diff, not an error to rethrow.
  virtual bool is_corruption(const std::exception& /*e*/) const { return false; }
};

/// A store's fixed part: its name, the salts that keep its scripts and
/// random boundaries apart, its largest value, whether it damages its own
/// image (an injected fault), and one workload per trial.
struct CrashStoreSpec {
  const char* store;
  std::uint64_t script_salt;
  std::uint64_t boundary_salt;
  std::size_t max_value_bytes;
  bool mutates_image;
  std::function<std::unique_ptr<CrashWorkload>()> make;
};

/// Run one trial at opt.crash_at (or a seeded-random boundary).
CrashReport run_crash_trial(const SystemConfig& base_cfg, Scheme scheme,
                            const CrashStoreSpec& spec, const CrashOptions& opt);

/// Verdict counts of a boundary sweep, plus what it covered and what failed.
struct CrashMatrix : CampaignCell {
  std::uint64_t total_boundaries = 0;
  /// Crash boundaries visited per persist stage — proves the sweep covered
  /// every protocol step.
  std::map<std::string, std::uint64_t> stage_trials;
  /// Every trial whose verdict fails, in boundary order.
  std::vector<CrashReport> failures;

  /// One "repro: detail" line per failure.
  std::string failure_lines() const;
};

/// Sweep crash boundaries 0, stride, 2*stride, ... total (always including
/// total): one dry run, then one crashed trial per boundary, `jobs` trials
/// in parallel with a deterministic merge. stride 1 is exhaustive.
CrashMatrix run_crash_matrix(const SystemConfig& base_cfg, Scheme scheme,
                             const CrashStoreSpec& spec, const CrashOptions& opt,
                             std::uint64_t stride, unsigned jobs);

}  // namespace steins
