#include "kv/lsm/lsm_crash.hpp"

#include <limits>

#include "kv/lsm/lsm_store.hpp"
#include "sim/system.hpp"

namespace steins::lsm {

namespace {

/// Small geometry + aggressive flush/compact thresholds so a short script
/// exercises every persist stage.
const LsmLayout kLayout{Addr{1} << 20, /*manifest_blocks=*/4, /*wal_blocks=*/64,
                        /*arena_blocks=*/2048};
const LsmConfig kEngine{/*memtable_limit_bytes=*/256, /*l0_compact_trigger=*/2,
                        /*index_every=*/4, kMaxLsmValueBytes,
                        /*verify_runs_on_open=*/true, /*merge_jobs=*/1};

class LsmWorkload final : public CrashWorkload {
 public:
  Status create(System& sys, CrashPersistHook hook, CrashModel& model) override {
    store_.emplace(sys, kLayout, kEngine);
    store_->set_persist_hook(std::move(hook));
    // An operation commits at its WAL record's last barrier, possibly
    // before a flush or compaction inside the same call crashes.
    store_->set_commit_hook(
        [&model](std::uint64_t key, WalKind kind, const std::string& value) {
          if (kind == WalKind::kErase) {
            model.erase(key);
          } else {
            model[key] = value;
          }
        });
    return store_->open();
  }
  void put(std::uint64_t key, const std::string& value) override { store_->put(key, value); }
  void erase(std::uint64_t key) override { store_->erase(key); }
  std::optional<std::string> get(std::uint64_t key) override { return store_->get(key); }
  void close(CrashReport& report) override {
    report.flushes = store_->stats().flushes;
    report.compactions = store_->stats().compactions;
    store_.reset();
  }

  /// The "manifest loss" hook point: clobber both replicas (the commit word
  /// survives, so this is a referenced-but-undecodable manifest, not a
  /// pristine region). The engine must detect it.
  void mutate_image(System& sys) override {
    for (int replica = 0; replica < 2; ++replica) {
      for (std::size_t b = 0; b < kLayout.manifest_blocks; ++b) {
        Block garbage;
        garbage.fill(static_cast<std::uint8_t>(0xa5 + b));
        sys.store(kLayout.manifest_addr(replica) + b * kBlockSize, garbage);
      }
    }
    // If the crash landed before the very first commit-word persist, the
    // region still reads as pristine and the garbage is unreferenced —
    // write a plausible commit word (version 1) so the loss is a
    // referenced manifest at every boundary.
    Block cb = sys.load(kLayout.manifest_commit_addr());
    if (get_u64(cb.data()) == 0) {
      const std::uint64_t word = (std::uint64_t{1} << 1) | 1;
      for (int i = 0; i < 8; ++i) {
        cb.data()[i] = static_cast<std::uint8_t>(word >> (8 * i));
      }
      sys.store(kLayout.manifest_commit_addr(), cb);
    }
  }

  bool reopen(System& sys, const RecoveryResult& r, const CrashModel& model,
              CrashReport& report) override {
    store_.emplace(sys, kLayout, kEngine);
    store_->apply_recovery_report(r);
    const Status s = store_->open();
    if (!s.ok()) {
      if (report.faulted) {
        // The engine's own validation (manifest crc, run footers, WAL
        // epoch checks) refused the damaged image: that is detection.
        report.fault_detected = true;
        report.detail = "reopen refused: " + s.to_string();
        return false;
      }
      if (report.salvaged && is_unavailable(s.code())) {
        // Salvage quarantined lines under the engine's own region; typed
        // unavailability of the whole store is degraded service.
        report.keys_unavailable = model.size();
        report.degraded_verified = true;
        report.detail = "store unavailable after salvage: " + s.to_string();
        return false;
      }
      report.detail = "reopen failed: " + s.to_string();
      return false;
    }
    report.wal_torn = store_->wal_replay_torn();
    return true;
  }
  CrashModel dump() override { return store_->dump(); }
  Expected<std::optional<std::string>> try_get(std::uint64_t key) override {
    return store_->try_get(key);
  }
  std::optional<CrashModel> dump_degraded() override {
    LsmStore::DegradedDump dump = store_->dump_degraded();
    // With every run readable the merged view is authoritative: nothing
    // uncommitted may appear. (With runs missing, older values legally
    // resurface in the merge — the per-key check already proved point
    // reads stay exact-or-typed.)
    if (dump.runs_unavailable != 0) return std::nullopt;
    return std::move(dump.live);
  }

 private:
  std::optional<LsmStore> store_;
};

/// The script (+5) and random-boundary (+3) salts fix every LSM script and
/// crash_at.
CrashStoreSpec lsm_spec(const LsmCrashOptions& opt) {
  return {"lsm", 5, 3, std::numeric_limits<std::size_t>::max(), opt.manifest_loss,
          [] { return std::make_unique<LsmWorkload>(); }};
}

}  // namespace

CrashReport run_lsm_crash_validation(const SystemConfig& base_cfg, Scheme scheme,
                                     const LsmCrashOptions& opt) {
  return run_crash_trial(base_cfg, scheme, lsm_spec(opt), opt);
}

CrashMatrix run_lsm_crash_matrix(const SystemConfig& base_cfg, Scheme scheme,
                                 const LsmCrashOptions& opt, std::uint64_t stride,
                                 unsigned jobs) {
  return run_crash_matrix(base_cfg, scheme, lsm_spec(opt), opt, stride, jobs);
}

}  // namespace steins::lsm
