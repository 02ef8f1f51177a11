#include "kv/kv_crash.hpp"

#include "kv/kv_store.hpp"

namespace steins::kv {

namespace {

class KvWorkload final : public CrashWorkload {
 public:
  explicit KvWorkload(std::size_t slots) { layout_.slots = slots; }

  // An operation commits when it returns: the harness' model is exact.
  Status create(System& sys, CrashPersistHook hook, CrashModel&) override {
    kv_.emplace(sys, layout_);
    kv_->set_persist_hook(std::move(hook));
    return Status();
  }
  void put(std::uint64_t key, const std::string& value) override { kv_->put(key, value); }
  void erase(std::uint64_t key) override { kv_->erase(key); }
  std::optional<std::string> get(std::uint64_t key) override { return kv_->get(key); }

  bool reopen(System& sys, const RecoveryResult& r, const CrashModel&, CrashReport&) override {
    kv_.emplace(sys, layout_);
    kv_->apply_recovery_report(r);
    return true;
  }
  CrashModel dump() override { return kv_->dump(); }
  Expected<std::optional<std::string>> try_get(std::uint64_t key) override {
    return kv_->try_get(key);
  }
  std::optional<CrashModel> dump_degraded() override { return kv_->dump_degraded().live; }
  bool is_corruption(const std::exception& e) const override {
    return dynamic_cast<const KvCorruption*>(&e) != nullptr;
  }

 private:
  KvLayout layout_;
  std::optional<KvStore> kv_;
};

/// The script (+1) and random-boundary (+7) salts fix every KV script and
/// crash_at.
CrashStoreSpec kv_spec(std::size_t slots) {
  return {"kv", 1, 7, kMaxValueBytes, false,
          [slots] { return std::make_unique<KvWorkload>(slots); }};
}

}  // namespace

CrashReport run_kv_crash_validation(const SystemConfig& base_cfg, Scheme scheme,
                                    const KvCrashOptions& opt) {
  return run_crash_trial(base_cfg, scheme, kv_spec(opt.slots), opt);
}

CrashMatrix run_kv_crash_matrix(const SystemConfig& base_cfg, Scheme scheme,
                                const KvCrashOptions& opt, std::uint64_t stride,
                                unsigned jobs) {
  return run_crash_matrix(base_cfg, scheme, kv_spec(opt.slots), opt, stride, jobs);
}

}  // namespace steins::kv
