// Steins (paper §III): fast recovery for SIT-protected NVM with
// write-back-level runtime performance.
//
// Mechanisms:
//  * Counter generation (§III-B): when a dirty node is flushed, its parent
//    counter is GENERATED from the node (Eq. 1 sum, or Eq. 2 weighted sum
//    with skip-increment majors for split leaves) instead of
//    self-incremented, so stale parents can be recomputed from persistent
//    children after a crash.
//  * Offset-based tracking (§III-C): one 4-byte metadata-region offset per
//    metadata-cache line, grouped into 64 B record lines; a few record
//    lines are cached in the controller's ADR domain. Records are written
//    only on clean->dirty transitions.
//  * LInc trust bases (§III-D): per-level 8-byte registers holding the
//    total increase of cached counters over their stale NVM versions; all
//    LIncs fit one 64 B non-volatile register.
//  * Non-volatile parent buffer (§III-E): when a flushed node's parent is
//    not cached, the generated counter is parked in a small NV buffer and
//    applied lazily (before the next read or when full), removing iterative
//    parent fetches from the write critical path.
//  * Leaf recovery (§III-G): leaf counters are recovered from the covered
//    data blocks' HMACs by bounded trial (Osiris-style stop-loss bound for
//    GC; minor range + write-through-on-overflow majors for SC).
//  * Recovery (§III-G): root-to-leaf; children rebuilt counters are checked
//    by each child's HMAC (tampering), per-level counter-increase sums are
//    checked against the LIncs (replay).
#pragma once

#include <cstdint>
#include <vector>

#include "cache/cache.hpp"
#include "common/flat_map.hpp"
#include "secure/secure_memory.hpp"

namespace steins {

class SteinsMemory final : public SecureMemoryBase {
 public:
  explicit SteinsMemory(const SystemConfig& cfg);

  void crash() override;
  RecoveryResult recover() override;

  /// Stop-loss period for GC leaf counters: the leaf is written through
  /// every kStopLoss increments of one counter, bounding the recovery
  /// trial search (paper §V: Osiris-style leaf recovery).
  static constexpr std::uint64_t kStopLoss = 64;

  /// Recovery resume cursor (re-entrant recovery): the full candidate set
  /// is persisted to plain NVM before any recovery mutation, so an attempt
  /// that crashes mid-walk re-enters with every original candidate even
  /// after step-5 installs have clobbered record slots and the NV parent
  /// buffer has been retired. One 64 B header + packed 4-byte offsets.
  static constexpr std::uint64_t kCursorMagic = 0x53544e4355525331ULL;  // "STNCURS1"
  static constexpr std::uint32_t kCursorFlagDegraded = 1u << 0;
  static constexpr std::uint32_t kCursorFlagOverflow = 1u << 1;

  /// Per-level trust bases (testing/introspection).
  const std::vector<std::uint64_t>& lincs() const { return lincs_; }
  std::size_t nv_buffer_entries() const { return nv_buffer_.size(); }

  /// Base of the persisted recovery resume-cursor window (testing).
  Addr recovery_cursor_base() const { return cursor_base_; }

  /// Drain the NV parent buffer now (normally triggered before reads).
  void drain_nv_buffer(Cycle& now);

  std::optional<std::uint64_t> pending_parent_counter(NodeId id) const override;
  std::vector<NodeId> pending_children() const override;

 protected:
  Cycle persist_node(SitNode& node, Cycle now) override;
  void on_node_dirtied(NodeId id, Cycle& now) override;
  void before_read(Cycle& now) override;
  CounterBump bump_leaf_counter(MetadataLine& leaf, std::size_t slot, Cycle& now) override;

 private:
  struct RecordLine {
    std::array<std::uint32_t, 16> offsets{};  // 0 = empty, else offset + 1
    std::uint16_t modified = 0;               // slots written since caching
  };

  struct BufferEntry {
    NodeId parent;
    std::size_t slot;
    std::uint64_t counter;  // generated parent counter
  };

  static constexpr std::size_t kOffsetsPerRecordLine = 16;

  Addr record_line_addr(std::size_t line) const { return record_base_ + line * kBlockSize; }

  /// Record the offset of a newly-dirtied node, keyed by its cache line.
  /// Slots are overwritten unconditionally, so a record-cache miss needs no
  /// NVM read; evictions merge the modified slots into the region with
  /// 4-byte partial writes (PCM is byte-addressable).
  void write_record(NodeId id, Cycle& now);

  /// Merge a record line's modified slots into NVM (partial writes).
  void flush_record_line(Addr laddr, const RecordLine& line, Cycle& now);

  /// Device occupancy charged per partial record write burst.
  static constexpr Cycle kPartialWriteCycles = 16;

  /// Apply (and remove) buffered parent counters targeting `node`; also
  /// mirrors the update into the cached copy if one exists.
  void apply_buffered_entries_to(SitNode& node);

  /// Apply one buffer entry whose parent is cached (or fetch it).
  void apply_buffer_entry(const BufferEntry& e, Cycle& now);

  // ---- recovery helpers ----

  struct RecoveryCtx {
    FlatMap<SitNode> recovered;  // key = flat offset; reserved per walk
    FlatMap<SitNode> clean_verified;
    /// Roots of subtrees quarantined during this walk: (level, index).
    std::vector<std::pair<unsigned, std::uint64_t>> quarantined;
    /// Any loss happened: remaining LInc sums are unverifiable and skipped.
    bool linc_skip = false;
    /// Record lines were unreadable: candidates came from a resident scan.
    bool record_fallback = false;
    RecoveryReport* result = nullptr;
  };

  static std::uint64_t flat_key(const SitGeometry& geo, NodeId id) {
    return geo.offset_of(id);
  }

  /// True when `id` lies inside a subtree already quarantined this walk.
  static bool in_quarantined(const RecoveryCtx& ctx, NodeId id);

  /// Quarantine `id`'s subtree: records it in the walk context (so siblings
  /// keep going but descendants are skipped), blocks its covered data range,
  /// and voids the remaining LInc checks.
  void quarantine_subtree_ctx(NodeId id, RecoveryCtx& ctx, QuarantineReason reason);

  /// Counters of `id` during recovery: recovered map, else NVM (verified
  /// against its parent, recursing upward). Returns false when the chain is
  /// unusable — attack recorded and/or subtree quarantined in ctx — and the
  /// caller moves on to the next candidate.
  bool recovery_counters(NodeId id, RecoveryCtx& ctx, SitNode* out);

  /// A side effect of a read-only rebuild, deferred to the ordered commit:
  /// it is applied once the `reads` rebuild reads before it are charged,
  /// i.e. at the point where it occurred.
  struct WalkEvent {
    enum class Kind : std::uint8_t { kQuarantineNode, kQuarantineLine, kLincSkip };
    enum class Attack : std::uint8_t {
      kNone,
      kChildErased,
      kChildTampered,
      kDataErased,
      kDataUnmatched
    };
    Kind kind = Kind::kLincSkip;
    Attack attack = Attack::kNone;
    QuarantineReason reason = QuarantineReason::kLost;
    std::uint32_t reads = 0;
    NodeId node;    // kQuarantineNode: the child whose subtree goes
    Addr addr = 0;  // kQuarantineLine: the data line that goes
  };

  /// A rebuilt node, its parent-value increase over the stale node (the
  /// LInc term), the NVM reads it took and its deferred events in the order
  /// they occurred.
  struct RebuildOutcome {
    SitNode node;
    std::uint64_t increase = 0;
    std::uint32_t reads = 0;
    std::vector<WalkEvent> events;
  };

  /// One walk candidate's pure-phase result (DESIGN.md §17, "Parallel
  /// level walk"): its stale image, the stale HMAC check when the parent
  /// counter was already known, and its rebuild.
  struct CandidateOutcome {
    bool exists = false;
    bool dead = false;
    std::uint64_t stored = 0;  // the stale image's HMAC
    SitNode stale;
    bool pc_known = false;  // parent counter known before the commit
    std::uint64_t pc = 0;
    bool stale_ok = false;  // stale check against `pc` (when pc_known)
    bool rebuilt = false;
    RebuildOutcome rebuild;
  };

  /// Candidates per walk window: each window runs its pure pass, then its
  /// commit, before the next starts, bounding the buffered outcomes.
  static constexpr std::size_t kWalkWindow = 1024;

  /// Rebuild a node's counters from its persistent children; verifies each
  /// child's HMAC with the regenerated counter (tamper check). Unusable
  /// children become quarantine events and keep their stale slot value.
  /// Reads only.
  RebuildOutcome rebuild_from_children(NodeId id, const SitNode& stale,
                                       const RecoveryCtx& ctx) const;

  /// Recover one leaf's counters by bounded trial against data HMACs.
  /// Unreadable or unmatched blocks become quarantine events; their
  /// counters stay stale and the covering LInc checks are voided. Reads
  /// only.
  RebuildOutcome rebuild_leaf_from_data(NodeId id, const SitNode& stale) const;

  /// Does the stale image verify against parent counter `pc`?
  bool stale_verifies(const CandidateOutcome& o, NodeId id, std::uint64_t pc) const;

  /// Pure phase for one candidate: reads only, safe to run concurrently
  /// with other candidates of the same level.
  CandidateOutcome walk_pure(NodeId id, const RecoveryCtx& ctx) const;

  /// Commit phase for one candidate, in candidate order: every check and
  /// state change of the walk, with the pure-phase reads and events
  /// applied at the read count where they occurred.
  void walk_commit(NodeId id, CandidateOutcome& o, RecoveryCtx& ctx, std::uint64_t* level_sum);

  /// Charge a rebuild's reads and apply its events in order.
  void apply_rebuild(const RebuildOutcome& o, RecoveryCtx& ctx);

  /// The salvage walk proper; recover() wraps it so every exit path still
  /// yields a RecoveryReport.
  void recover_impl(RecoveryCtx& ctx, RecoveryReport& result);

  // ---- re-entrant recovery: resume cursor ----

  /// Persist the candidate set (crosses one "cursor" persist boundary
  /// before any poke, so an armed crash leaves no durable trace).
  void persist_recovery_cursor(const std::vector<std::vector<NodeId>>& by_level,
                               bool degraded);
  /// Read a prior attempt's cursor. Returns false when none is present;
  /// sets *degraded when the prior attempt ran (or this one must run) the
  /// resident-scan fallback. Reads only.
  bool load_recovery_cursor(std::vector<std::uint32_t>* offsets, bool* degraded);
  /// Retire the cursor at the end of a completed attempt (one boundary).
  void clear_recovery_cursor();

  Addr cursor_line_addr(std::size_t line) const {
    return cursor_base_ + line * kBlockSize;
  }

  Addr record_base_;
  Addr cursor_base_;
  std::size_t cursor_capacity_;              // max offsets the region holds
  std::size_t record_lines_;                 // record region size in lines
  SetAssocCache<RecordLine> record_cache_;   // ADR-resident record lines
  std::vector<std::uint64_t> lincs_;         // NV register: one per level
  std::vector<BufferEntry> nv_buffer_;       // NV parent-counter buffer
  std::size_t nv_buffer_capacity_;
  bool draining_ = false;                    // re-entrancy guard for drains
};

}  // namespace steins
