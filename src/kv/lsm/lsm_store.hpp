// Log-structured KV engine over the secure NVM path (DESIGN.md §15).
//
// The write path is WAL-first: every put/erase appends one WAL record
// (its last persist barrier is the operation's commit point), then
// updates the in-memory memtable. When the memtable reaches its byte
// budget it flushes into an immutable sorted L0 run; when enough L0 runs
// pile up, compaction merges all L0 + L1 runs into one new L1 run,
// dropping tombstones (L1 is the bottom level). Every structural change
// — flush, compaction, format — becomes durable by installing a new
// manifest version (ManifestStore's atomic commit word); run extents and
// WAL bytes not reachable from the committed manifest are dead by
// definition, which is why no step here ever needs an undo.
//
// Recovery (open()) is: read the committed manifest, validate each
// referenced run's footer (full checksum when verify_runs_on_open),
// replay the current-epoch WAL tail into the memtable, and resume. A
// torn WAL tail is a legal end of log; a manifest that fails to decode
// is a detected loss (kIntegrity), not silent corruption.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "kv/lsm/format.hpp"
#include "kv/lsm/lsm_layout.hpp"
#include "kv/lsm/manifest.hpp"
#include "kv/lsm/sorted_run.hpp"
#include "kv/lsm/wal.hpp"
#include "sim/system.hpp"

namespace steins {
class ThreadPool;
}

namespace steins::lsm {

struct LsmConfig {
  std::size_t memtable_limit_bytes = 4096;  // encoded-entry budget before flush
  std::size_t l0_compact_trigger = 4;       // L0 run count that forces compaction
  std::size_t index_every = 8;              // sparse-index stride (entries)
  std::size_t max_value_bytes = kMaxLsmValueBytes;
  bool verify_runs_on_open = true;  // full run checksums during recovery
  unsigned merge_jobs = 1;          // compaction merge shards run in parallel
  /// Run the compaction MERGE on a background pool thread, racing
  /// foreground WAL commits: when the trigger fires, the inputs are
  /// loaded in the foreground (all System I/O stays on the serving
  /// thread), the pure in-memory merge is handed to the pool, and the
  /// result is installed at the next structural barrier (flush, explicit
  /// compact(), or compact_join()). Runs flushed while the merge is in
  /// flight are newer than every input, so they simply stay above the
  /// output — the final image is identical to foreground compaction, and
  /// a crash before the join leaves the old manifest + WAL (the output
  /// was never written). Off by default: false keeps the fully
  /// synchronous PR 7 behavior.
  bool background_compaction = false;
};

/// Engine-level counters (logical bytes; the scheme's own metadata traffic
/// is visible through System::collect_stats() instead).
struct LsmStats {
  std::uint64_t puts = 0;
  std::uint64_t erases = 0;
  std::uint64_t gets = 0;
  std::uint64_t bytes_put = 0;       // user value bytes accepted
  std::uint64_t wal_records = 0;
  std::uint64_t wal_bytes = 0;       // encoded WAL bytes appended
  std::uint64_t flushes = 0;
  std::uint64_t compactions = 0;
  std::uint64_t bg_compactions = 0;  // of which: merged on the pool
  std::uint64_t runs_written = 0;
  std::uint64_t run_blocks_written = 0;  // data+index+footer blocks
  std::uint64_t persist_barriers = 0;

  /// Engine-level write amplification: every byte the engine asked the
  /// media to persist (WAL + runs) per user byte put.
  double logical_write_amp() const {
    const double persisted =
        static_cast<double>(wal_bytes + run_blocks_written * kBlockSize);
    return bytes_put == 0 ? 0.0 : persisted / static_cast<double>(bytes_put);
  }
};

class LsmStore {
 public:
  LsmStore(System& sys, const LsmLayout& layout, const LsmConfig& cfg);
  ~LsmStore();

  /// Recover (or format) the region and make the store serviceable.
  /// Returns kIntegrity when the committed manifest or a referenced run
  /// fails validation — a detected loss. Typed unavailability from the
  /// secure path during recovery also comes back as its Status. An
  /// IntegrityViolation (HMAC/root mismatch) propagates as an exception:
  /// that is the secure layer detecting tampering, not this engine.
  Status open();
  bool is_open() const { return open_; }

  // Throwing API (mirrors KvStore).
  void put(std::uint64_t key, const std::string& value);
  std::optional<std::string> get(std::uint64_t key);
  bool erase(std::uint64_t key);
  std::map<std::uint64_t, std::string> dump();

  // Degraded-mode API (mirrors KvStore's try_ surface).
  void apply_recovery_report(const RecoveryReport& report);
  bool read_only() const { return read_only_; }
  void set_read_only(bool ro) { read_only_ = ro; }
  bool degraded() const { return degraded_; }

  Expected<std::optional<std::string>> try_get(std::uint64_t key);
  Status try_put(std::uint64_t key, const std::string& value);
  Expected<bool> try_erase(std::uint64_t key);

  struct DegradedDump {
    std::map<std::uint64_t, std::string> live;
    std::uint64_t runs_unavailable = 0;  // runs whose blocks are unreadable
  };
  DegradedDump dump_degraded();

  /// Force the memtable into an L0 run now (no-op when empty).
  void flush();
  /// Merge all runs into one L1 run now (no-op with fewer than two runs
  /// and no tombstones to drop). Joins any in-flight background merge
  /// first, so after compact() returns the store is fully compacted
  /// regardless of mode.
  void compact();
  /// Install the in-flight background compaction now (no-op when none is
  /// pending). Also happens automatically at every flush and compact().
  void compact_join();
  bool compaction_pending() const { return pending_.has_value(); }

  std::size_t l0_runs() const { return l0_.size(); }
  std::size_t l1_runs() const { return l1_.size(); }
  std::size_t memtable_entries() const { return memtable_.size(); }
  std::uint64_t wal_epoch() const { return wal_.epoch(); }
  /// Outcome of the last open()'s WAL replay.
  bool wal_replay_torn() const { return wal_torn_; }
  std::uint64_t wal_replayed_records() const { return wal_replayed_; }
  const LsmStats& stats() const { return stats_; }
  const LsmLayout& layout() const { return layout_; }

  /// Called immediately BEFORE each persist barrier with its stage label:
  /// "wal", "flush-data", "flush-footer", "compact-data",
  /// "compact-footer", "manifest-data", "manifest-commit". Crash tests
  /// throw from here.
  using PersistHook = std::function<void(const char* stage, std::uint64_t index)>;
  void set_persist_hook(PersistHook hook) { hook_ = std::move(hook); }

  /// Called right after an operation's WAL record is fully durable (its
  /// last barrier returned) — the exact commit point. The crash harness
  /// builds its durable model from this.
  using CommitHook =
      std::function<void(std::uint64_t key, WalKind kind, const std::string& value)>;
  void set_commit_hook(CommitHook hook) { commit_hook_ = std::move(hook); }

 private:
  struct MemEntry {
    WalKind kind = WalKind::kPut;
    std::string value;
  };

  void persist_barrier(Addr addr, const char* stage);
  void append_op(std::uint64_t key, WalKind kind, const std::string& value);
  void flush_locked();
  void compact_locked();
  void maybe_compact();
  void snapshot_inputs(std::vector<std::vector<RunEntry>>* inputs,
                       std::vector<std::uint64_t>* ids);
  void compact_begin();
  /// Write `merged` as the new single L1 run and install a manifest equal
  /// to the current one minus `input_ids` plus the output — preserving any
  /// runs flushed after the inputs were snapshotted.
  void install_compaction(std::vector<RunEntry> merged,
                          const std::vector<std::uint64_t>& input_ids);
  std::vector<RunEntry> merge_runs(const std::vector<std::vector<RunEntry>>& inputs);
  Extent allocate_extent(std::uint64_t blocks) const;
  void install_manifest(ManifestData m);
  std::optional<RunReader::Found> find_in_runs(std::uint64_t key);

  System& sys_;
  LsmLayout layout_;
  LsmConfig cfg_;
  Wal wal_;
  ManifestStore manifest_store_;
  ManifestData manifest_;

  std::map<std::uint64_t, MemEntry> memtable_;
  std::size_t memtable_bytes_ = 0;
  std::vector<RunReader> l0_;  // ascending run_id; newest = back
  std::vector<RunReader> l1_;

  /// In-flight background compaction: the merge future (pure CPU work on
  /// bg_pool_) plus the run_ids it consumed. All System I/O — loading the
  /// inputs, writing the output, installing the manifest — stays on the
  /// foreground thread; only the in-memory k-way merge races WAL commits.
  struct PendingCompaction {
    std::future<std::vector<RunEntry>> merged;
    std::vector<std::uint64_t> input_ids;
  };

  PersistHook hook_;
  CommitHook commit_hook_;
  LsmStats stats_;
  std::unique_ptr<ThreadPool> merge_pool_;
  std::unique_ptr<ThreadPool> bg_pool_;
  std::optional<PendingCompaction> pending_;
  bool wal_torn_ = false;
  std::uint64_t wal_replayed_ = 0;
  bool open_ = false;
  bool read_only_ = false;
  bool degraded_ = false;
};

}  // namespace steins::lsm
