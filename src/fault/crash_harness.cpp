#include "fault/crash_harness.hpp"

#include <algorithm>
#include <sstream>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "sim/system.hpp"

namespace steins {

namespace {

/// Internal crash signal thrown from the persist hook.
struct CrashNow {};

struct ScriptOp {
  enum class Kind { kPut, kErase, kGet } kind;
  std::uint64_t key;
  std::string value;  // for puts
};

/// The script and its dry run: the stage label of every persist barrier of
/// the unperturbed script, so crash boundaries can be chosen over all of
/// them (0 = before the first persist, total = after the last). `failure`
/// says why the script could not run uncrashed.
struct CrashPlan {
  std::vector<ScriptOp> script;
  std::vector<std::string> stages;
  std::string failure;
};

/// Run the script to completion (or until the hook throws CrashNow). Every
/// operation that returns is committed and enters `model`. Returns false
/// with `detail` set if a read disagreed with the model mid-run.
bool execute_script(CrashWorkload& store, const std::vector<ScriptOp>& script,
                    CrashModel& model, std::string* detail) {
  for (const ScriptOp& op : script) {
    if (op.kind == ScriptOp::Kind::kPut) {
      store.put(op.key, op.value);
      model[op.key] = op.value;
    } else if (op.kind == ScriptOp::Kind::kErase) {
      store.erase(op.key);
      model.erase(op.key);
    } else {
      const std::optional<std::string> got = store.get(op.key);
      const auto want = model.find(op.key);
      const bool match = want == model.end() ? !got.has_value()
                                             : (got.has_value() && *got == want->second);
      if (!match) {
        *detail = "runtime get mismatch for key " + std::to_string(op.key);
        return false;
      }
    }
  }
  return true;
}

/// The deterministic op script (put-heavy with erases and reads mixed in,
/// hammering a small key universe so updates and tombstone reuse occur),
/// then its dry run.
CrashPlan plan_trials(const SystemConfig& base_cfg, Scheme scheme,
                      const CrashStoreSpec& spec, const CrashOptions& opt) {
  CrashPlan plan;
  Xoshiro256 rng(opt.seed * 0x9e3779b97f4a7c15ULL + spec.script_salt);
  plan.script.reserve(opt.ops);
  for (std::uint64_t i = 0; i < opt.ops; ++i) {
    const std::uint64_t key = rng.below(opt.keys);
    const std::uint64_t roll = rng.below(10);
    if (roll < 6) {
      std::string value = "v";
      value += std::to_string(i);
      value += 'k';
      value += std::to_string(key);
      if (value.size() < opt.value_bytes) value.resize(opt.value_bytes, '.');
      value.resize(std::min(value.size(), spec.max_value_bytes));
      plan.script.push_back({ScriptOp::Kind::kPut, key, std::move(value)});
    } else {
      plan.script.push_back(
          {roll < 8 ? ScriptOp::Kind::kErase : ScriptOp::Kind::kGet, key, {}});
    }
  }

  System sys(base_cfg, scheme);
  CrashModel model;
  const std::unique_ptr<CrashWorkload> store = spec.make();
  const Status s = store->create(
      sys, [&plan](const char* stage, std::uint64_t) { plan.stages.emplace_back(stage); },
      model);
  std::string detail;
  if (!s.ok()) {
    plan.failure = "dry run open failed: " + s.to_string();
  } else if (!execute_script(*store, plan.script, model, &detail)) {
    plan.failure = "dry run failed: " + detail;
  }
  return plan;
}

std::string diff_detail(const CrashModel& model, const CrashModel& recovered) {
  for (const auto& [key, value] : model) {
    const auto it = recovered.find(key);
    if (it == recovered.end()) {
      return "committed key " + std::to_string(key) + " missing after recovery";
    }
    if (it->second != value) {
      return "committed key " + std::to_string(key) + " has wrong value after recovery";
    }
  }
  for (const auto& [key, value] : recovered) {
    (void)value;
    if (!model.contains(key)) {
      return "uncommitted key " + std::to_string(key) + " present after recovery";
    }
  }
  return {};
}

/// Salvage diff: every committed key must either read back exactly or fail
/// with a *typed* unavailable error; a silent wrong/missing value still
/// fails. Keys the store can read that the model never committed fail too
/// (an uncommitted record became visible), when the store vouches for its
/// readable view.
void salvage_diff(CrashWorkload& store, const CrashModel& model, CrashReport& report) {
  for (const auto& [key, value] : model) {
    const auto got = store.try_get(key);
    if (!got.has_value()) {
      if (!is_unavailable(got.status().code())) {
        report.detail = "salvaged get of key " + std::to_string(key) +
                        " failed untyped: " + got.status().to_string();
        return;
      }
      ++report.keys_unavailable;
      continue;
    }
    if (!got.value().has_value()) {
      report.detail =
          "committed key " + std::to_string(key) + " silently missing after salvage";
      return;
    }
    if (*got.value() != value) {
      report.detail =
          "committed key " + std::to_string(key) + " has wrong value after salvage";
      return;
    }
  }
  if (const std::optional<CrashModel> live = store.dump_degraded()) {
    for (const auto& [key, value] : *live) {
      const auto want = model.find(key);
      if (want == model.end() || want->second != value) {
        report.detail = "uncommitted key " + std::to_string(key) + " served after salvage";
        return;
      }
    }
  }
  report.degraded_verified = true;
}

CrashReport new_report(const SystemConfig& base_cfg, Scheme scheme,
                       const CrashStoreSpec& spec, const CrashOptions& opt,
                       const CrashPlan& plan) {
  CrashReport report;
  report.store = spec.store;
  report.scheme = scheme_name(scheme, base_cfg.counter_mode);
  report.seed = opt.seed;
  report.fault_class = opt.fault_class;
  report.fault_seed = opt.fault_seed;
  report.adversary = opt.adversary;
  report.adversary_seed = opt.adversary_seed;
  report.detail = plan.failure;
  return report;
}

/// One crashed trial at a boundary of a successful plan.
CrashReport run_one(const SystemConfig& base_cfg, Scheme scheme, const CrashStoreSpec& spec,
                    const CrashOptions& opt, const CrashPlan& plan, std::uint64_t crash_at) {
  CrashReport report = new_report(base_cfg, scheme, spec, opt, plan);
  report.total_boundaries = plan.stages.size();
  report.crash_at = crash_at;
  report.crash_stage = crash_at < plan.stages.size() ? plan.stages[crash_at] : "end";

  // Replay with the crash injected before barrier `crash_at`. An armed
  // adversary records the persisted image (after a metadata flush, so
  // there is acknowledged-durable state to replay around) at the midpoint
  // barrier.
  System sys(base_cfg, scheme);
  auto* const secure = dynamic_cast<SecureMemoryBase*>(&sys.memory());
  CrashModel model;
  AdversarySnapshot snap;
  const auto hook = [&](const char*, std::uint64_t index) {
    if (opt.adversary.has_value() && secure != nullptr) {
      const std::uint64_t record_at = crash_at / 2;
      if (index == record_at) {
        secure->flush_all_metadata();
        snap = snapshot_device(*secure);
      } else if (index == (record_at + crash_at + 1) / 2) {
        // A later durability point: the metadata persisted here is
        // acknowledged-durable state the adversary replays around.
        // Without it the cached-metadata window would leave rollbacks
        // nothing persisted to revert (the same vacuity the trial
        // harness avoids with its checkpoint flush).
        secure->flush_all_metadata();
      }
    }
    if (index == crash_at) throw CrashNow{};
  };
  const std::unique_ptr<CrashWorkload> store = spec.make();
  try {
    const Status s = store->create(sys, hook, model);
    if (!s.ok()) {
      report.detail = "initial open failed: " + s.to_string();
      return report;
    }
    if (!execute_script(*store, plan.script, model, &report.detail)) return report;
  } catch (const CrashNow&) {
    // Power failed mid-operation (possibly during the initial format);
    // fall through to recovery.
  }
  report.committed_keys = model.size();
  store->close(report);

  // Fold the requested hardware fault into the crash. The injector hooks
  // the write queue's crash drain and flips bits after the scheme's ADR
  // flush, exactly as in the fault campaigns. The adversary's mutation
  // lands after the drain, before recovery.
  const bool hw_faulted = opt.fault_class != FaultClass::kNone;
  report.faulted = hw_faulted || opt.adversary.has_value() || spec.mutates_image;
  FaultInjector injector(FaultPlan::derive(opt.fault_class, opt.fault_seed, crash_at));
  if (opt.recovery_crash_boundary != 0) {
    injector.arm_recovery_crash(opt.recovery_crash_boundary, opt.recovery_crash_rearm);
  }
  if (hw_faulted || opt.recovery_crash_boundary != 0) sys.set_fault_injector(&injector);
  sys.set_recovery_policy(opt.retry_policy);

  RecoveryResult r;
  try {
    r = sys.crash_and_recover([&](SecureMemory&) {
      if (!opt.adversary.has_value() || secure == nullptr) return;
      const AdversaryPlan adversary{*opt.adversary, opt.adversary_seed};
      report.adversary_injected = apply_adversary_post_crash(
          *secure, scheme, adversary, snap, &report.adversary_events);
    });
  } catch (const IntegrityViolation& e) {
    sys.set_fault_injector(nullptr);
    report.fault_detected = true;
    report.detail = std::string("recovery raised: ") + e.what();
    return report;
  }
  sys.set_fault_injector(nullptr);
  if (!record_recovery(r, report)) return report;

  // Reboot: reconcile the application-visible image with NVM, reopen the
  // store over the surviving region, and diff against the model.
  try {
    sys.resync_truth_after_crash();
    if (spec.mutates_image) store->mutate_image(sys);
    if (!store->reopen(sys, r, model, report)) return report;
    if (!report.salvaged) {
      try {
        report.detail = diff_detail(model, store->dump());
        report.verified = report.detail.empty();
        return report;
      } catch (const StatusError& e) {
        if (!is_unavailable(e.code())) throw;
        // A media loss the scheme's recovery pass never scans (ASIT/STAR
        // rebuild from tracking metadata only) surfaces lazily as a typed
        // error on first read. That is still degraded service, not a
        // failure: fall through to the salvage diff.
        report.salvaged = true;
      }
    }
    salvage_diff(*store, model, report);
  } catch (const IntegrityViolation& e) {
    report.fault_detected = report.faulted;
    report.detail = std::string("reopen raised: ") + e.what();
  } catch (const StatusError& e) {
    report.detail = std::string("reopen failed: ") + e.what();
  } catch (const std::exception& e) {
    if (!store->is_corruption(e)) throw;
    report.detail = e.what();
  }
  return report;
}

}  // namespace

std::string CrashReport::repro() const {
  std::ostringstream os;
  os << "repro: store=" << store << " scheme=" << scheme << " seed=" << seed
     << " crash_at=" << crash_at;
  if (!crash_stage.empty()) os << " stage=" << crash_stage;
  os << " fault=" << fault_class_name(fault_class) << " fault_seed=" << fault_seed
     << " adversary=" << (adversary ? adversary_scenario_name(*adversary) : "none")
     << " adversary_seed=" << adversary_seed;
  return os.str();
}

FaultVerdict crash_verdict(const CrashReport& report, Scheme scheme) {
  if (report.recovery_gave_up) return FaultVerdict::kRecoveryCrashUnrecoverable;
  if (scheme == Scheme::kWriteBack) {
    return report.recovery_supported ? FaultVerdict::kSilentCorruption
                                     : FaultVerdict::kDetected;
  }
  if (report.recovery_ok && report.verified) {
    return report.recovery_attempts > 1 ? FaultVerdict::kRecoveredAfterRetry
                                        : FaultVerdict::kRecovered;
  }
  if (report.salvaged && report.degraded_verified) return FaultVerdict::kSalvaged;
  if (report.faulted && report.fault_detected) return FaultVerdict::kDetected;
  return FaultVerdict::kSilentCorruption;
}

RecoveryClass classify_recovery(const RecoveryResult& r) {
  if (r.recovery_gave_up) return RecoveryClass::kGaveUp;
  if (!r.supported) return RecoveryClass::kUnsupported;
  if (!r.status.ok()) return RecoveryClass::kInternalError;
  if (r.attack_detected) return RecoveryClass::kAttackDetected;
  if (r.degraded()) return RecoveryClass::kDegraded;
  return RecoveryClass::kClean;
}

bool record_recovery(const RecoveryResult& r, CrashReport& report) {
  report.recovery_supported = r.supported;
  report.recovery_ok = r.ok();
  report.recovery_seconds = r.seconds;
  report.recovery_attempts = r.attempt_count();
  report.recovery_gave_up = r.recovery_gave_up;
  switch (classify_recovery(r)) {
    case RecoveryClass::kGaveUp:
      report.detail = "recovery retry budget exhausted: " + r.status.message();
      return false;
    case RecoveryClass::kUnsupported:
      report.detail = "scheme reports recovery unsupported";
      return false;
    case RecoveryClass::kInternalError:
      report.detail = "recovery internal error: " + r.status.to_string();
      return false;
    case RecoveryClass::kAttackDetected:
      report.fault_detected = report.faulted;
      report.detail = "recovery flagged: " + r.attack_detail;
      return false;
    case RecoveryClass::kDegraded:
      report.salvaged = true;
      return true;
    case RecoveryClass::kClean:
      return true;
  }
  return true;
}

CrashReport run_crash_trial(const SystemConfig& base_cfg, Scheme scheme,
                            const CrashStoreSpec& spec, const CrashOptions& opt) {
  const CrashPlan plan = plan_trials(base_cfg, scheme, spec, opt);
  if (!plan.failure.empty()) return new_report(base_cfg, scheme, spec, opt, plan);
  const std::uint64_t total = plan.stages.size();
  std::uint64_t crash_at = std::min(opt.crash_at, total);
  if (opt.crash_at == CrashOptions::kRandomBoundary) {
    Xoshiro256 boundary_rng(opt.seed * 0x2545f4914f6cdd1dULL + spec.boundary_salt);
    crash_at = boundary_rng.below(total + 1);
  }
  return run_one(base_cfg, scheme, spec, opt, plan, crash_at);
}

std::string CrashMatrix::failure_lines() const {
  std::string all;
  for (const CrashReport& r : failures) all += r.repro() + ": " + r.detail + "\n";
  return all;
}

CrashMatrix run_crash_matrix(const SystemConfig& base_cfg, Scheme scheme,
                             const CrashStoreSpec& spec, const CrashOptions& opt,
                             std::uint64_t stride, unsigned jobs) {
  STEINS_CHECK(stride > 0, "matrix stride must be positive");
  CrashMatrix matrix;
  const CrashPlan plan = plan_trials(base_cfg, scheme, spec, opt);
  if (!plan.failure.empty()) {
    // A script that cannot even run uncrashed is a failure for every scheme.
    matrix.add(FaultVerdict::kSilentCorruption);
    matrix.failures.push_back(new_report(base_cfg, scheme, spec, opt, plan));
    return matrix;
  }
  matrix.total_boundaries = plan.stages.size();
  std::vector<std::uint64_t> boundaries;
  for (std::uint64_t b = 0; b <= matrix.total_boundaries; b += stride) {
    boundaries.push_back(b);
  }
  if (boundaries.back() != matrix.total_boundaries) {
    boundaries.push_back(matrix.total_boundaries);  // always test the clean end
  }

  // `jobs` workers; the tally merges in boundary order, so any jobs value
  // gives the same matrix.
  std::vector<CrashReport> reports(boundaries.size());
  ThreadPool pool(std::max(jobs, 1u));
  pool.for_each_index(boundaries.size(), [&](std::size_t i) {
    reports[i] = run_one(base_cfg, scheme, spec, opt, plan, boundaries[i]);
  });
  for (CrashReport& r : reports) {
    ++matrix.stage_trials[r.crash_stage];
    const FaultVerdict verdict = crash_verdict(r, scheme);
    matrix.add(verdict);
    if (!verdict_passes(verdict)) matrix.failures.push_back(std::move(r));
  }
  return matrix;
}

}  // namespace steins
