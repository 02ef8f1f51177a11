// Golden values for the Steins recovery walk at a scale where level 0 spans
// several walk windows (DESIGN.md §17, "Parallel level walk"). The values
// were captured from the single-threaded walk before it was split into a
// parallel pure phase and an ordered commit phase. Every case is checked at
// STEINS_JOBS=1 and STEINS_JOBS=4 and on a pool worker, so the report, the
// read accounting at every quarantine-map persist boundary, the
// post-recovery device image and the dirty metadata-cache set must not
// depend on the worker count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "fault/fault.hpp"
#include "fault/adversary.hpp"
#include "schemes/steins.hpp"

namespace steins {
namespace {

enum class GoldenCase { kClean, kFaults, kNestedCrash, kNestedCrashInLeafLevel };

/// Persist boundaries of the faulted walk: 1 persists the resume cursor,
/// 2 and 3 the quarantine map for the erased and the ECC-dead leaf (level-1
/// rebuild), 4 the quarantine map for the tampered data line (level-0
/// rebuild, several windows into the level).
constexpr std::uint64_t kFirstQmapBoundary = 2;
constexpr std::uint64_t kLeafLevelQmapBoundary = 4;

/// Sets STEINS_JOBS for one scope and restores the previous value.
class ScopedJobs {
 public:
  explicit ScopedJobs(const char* jobs) {
    if (const char* prev = std::getenv("STEINS_JOBS")) prev_ = prev;
    setenv("STEINS_JOBS", jobs, 1);
  }
  ~ScopedJobs() {
    if (prev_) {
      setenv("STEINS_JOBS", prev_->c_str(), 1);
    } else {
      unsetenv("STEINS_JOBS");
    }
  }
  ScopedJobs(const ScopedJobs&) = delete;
  ScopedJobs& operator=(const ScopedJobs&) = delete;

 private:
  std::optional<std::string> prev_;
};

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void bytes(const std::uint8_t* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes(reinterpret_cast<const std::uint8_t*>(&v) + i, 1);
  }
};

/// FNV-1a over every resident block (address, image, both tags), every
/// resident tag, and the dirty metadata-cache lines sorted by address.
std::uint64_t state_digest(SteinsMemory& mem) {
  Fnv1a f;
  const NvmDevice& dev = mem.device();
  const Addr limit = dev.address_limit();
  for (const Addr a : dev.resident_blocks(0, limit)) {
    f.u64(a);
    const Block b = dev.peek_block(a);
    f.bytes(b.data(), b.size());
  }
  for (const Addr a : dev.resident_tags(0, limit)) {
    f.u64(a);
    f.u64(dev.read_tag(a));
    f.u64(dev.read_tag2(a));
  }
  std::vector<std::pair<Addr, Block>> dirty;
  mem.metadata_cache().for_each([&](const MetadataLine& line) {
    if (line.dirty) dirty.emplace_back(line.tag, line.payload.to_block(0));
  });
  std::sort(dirty.begin(), dirty.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [a, b] : dirty) {
    f.u64(a);
    f.bytes(b.data(), b.size());
  }
  return f.h;
}

std::string describe(const RecoveryReport& r) {
  char buf[160];
  std::string s;
  std::snprintf(buf, sizeof(buf), "supported=%d attack=%d level=%d status=", r.supported,
                r.attack_detected, r.attacked_level);
  s += buf;
  s += r.status.to_string() + " detail=\"" + r.attack_detail + "\"";
  std::snprintf(buf, sizeof(buf),
                " nodes=%llu salvaged=%llu quarantined=%llu subtrees=%llu lines=%llu "
                "degraded=%d",
                static_cast<unsigned long long>(r.nodes_recovered),
                static_cast<unsigned long long>(r.blocks_salvaged),
                static_cast<unsigned long long>(r.blocks_quarantined),
                static_cast<unsigned long long>(r.subtrees_quarantined),
                static_cast<unsigned long long>(r.lines_quarantined), r.tracking_degraded);
  s += buf;
  s += " linc_unverified=[";
  for (const unsigned k : r.linc_unverified) s += std::to_string(k) + ",";
  s += "] ranges=[";
  for (const auto& [lo, hi] : r.quarantined_ranges) {
    s += std::to_string(lo) + "-" + std::to_string(hi) + ",";
  }
  std::snprintf(buf, sizeof(buf), "] reads=%llu writes=%llu seconds=%.17g gave_up=%d cursor=%llu",
                static_cast<unsigned long long>(r.nvm_reads),
                static_cast<unsigned long long>(r.nvm_writes), r.seconds, r.recovery_gave_up,
                static_cast<unsigned long long>(r.resume_cursor));
  s += buf;
  for (const RecoveryAttempt& a : r.attempts) {
    std::snprintf(buf, sizeof(buf), " {reads=%llu writes=%llu seconds=%.17g crashed=%d at=%llu",
                  static_cast<unsigned long long>(a.nvm_reads),
                  static_cast<unsigned long long>(a.nvm_writes), a.seconds, a.crashed,
                  static_cast<unsigned long long>(a.crash_boundary));
    s += buf;
    s += " stage=" + a.crash_stage + " cursor=" + std::to_string(a.resume_cursor) + "}";
  }
  return s;
}

struct GoldenRun {
  std::string report;
  std::uint64_t digest = 0;
};

/// First persisted child of a dirty (cached) level-1 node whose persisted
/// parent image holds a nonzero counter for it, skipping `exclude`: the
/// level-1 rebuild reads that child inside the walk.
NodeId persisted_child_of_dirty_parent(SteinsMemory& mem, std::optional<NodeId> exclude) {
  const SitGeometry& geo = mem.geometry();
  const NvmDevice& dev = mem.device();
  for (std::uint64_t i = 0; i < geo.level_count(1); ++i) {
    const NodeId p{1, i};
    const Addr paddr = geo.node_addr(p);
    const MetadataLine* line = mem.metadata_cache().peek(paddr);
    if (line == nullptr || !line->dirty || !dev.contains(paddr)) continue;
    const SitNode stale = SitNode::from_block(p, false, dev.peek_block(paddr));
    for (std::size_t j = 0; j < geo.num_children(p); ++j) {
      const NodeId c = geo.child_of(p, j);
      if (exclude && c.index == exclude->index) continue;
      if (stale.gc.counters[j] != 0 && dev.contains(geo.node_addr(c))) return c;
    }
  }
  ADD_FAILURE() << "no persisted child under a dirty level-1 node";
  return NodeId{0, 0};
}

struct RecoveredCase {
  std::unique_ptr<SteinsMemory> mem;
  RecoveryReport report;
};

/// fig17's dense fill at 256 KB (8192 leaves), crash, the case's faults,
/// then recovery (re-entered after the armed nested crash, if any).
RecoveredCase recover_case(CounterMode mode, GoldenCase c) {
  SystemConfig cfg = default_config();
  cfg.counter_mode = mode;
  cfg.secure.metadata_cache.size_bytes = 256 << 10;
  RecoveredCase out{std::make_unique<SteinsMemory>(cfg), {}};
  SteinsMemory& mem = *out.mem;
  const SitGeometry& geo = mem.geometry();
  const std::uint64_t leaves = 2 * cfg.secure.metadata_cache.size_bytes / kBlockSize;
  Cycle now = 0;
  Block data{};
  for (std::uint64_t leaf = 0; leaf < leaves; ++leaf) {
    data[0] = static_cast<std::uint8_t>(leaf);
    now = mem.write_block(leaf * geo.leaf_coverage() * kBlockSize, data, now);
  }

  std::optional<NodeId> erased, dead;
  Addr tampered = 0;
  if (c != GoldenCase::kClean) {
    erased = persisted_child_of_dirty_parent(mem, std::nullopt);
    dead = persisted_child_of_dirty_parent(mem, erased);
    // A data line under a dirty leaf: the level-0 rebuild trials it.
    for (std::uint64_t leaf = leaves; leaf-- > 0;) {
      const MetadataLine* line = mem.metadata_cache().peek(geo.node_addr({0, leaf}));
      if (line != nullptr && line->dirty) {
        tampered = leaf * geo.leaf_coverage() * kBlockSize;
        break;
      }
    }
  }
  mem.crash();
  if (c != GoldenCase::kClean) {
    NvmDevice& dev = mem.device();
    EXPECT_TRUE(dev.remap_line(geo.node_addr(*erased)));  // drops the image
    dev.inject_ecc_error(geo.node_addr(*dead), 5, false, 0);
    tamper_line(mem.device(), tampered, 7);
  }

  FaultInjector injector(FaultPlan::derive(FaultClass::kNone, 1, 0));
  mem.set_fault_injector(&injector);
  if (c == GoldenCase::kNestedCrash) injector.arm_recovery_crash(kFirstQmapBoundary);
  if (c == GoldenCase::kNestedCrashInLeafLevel) {
    injector.arm_recovery_crash(kLeafLevelQmapBoundary);
  }
  out.report = recover_with_retry(mem, &injector);
  mem.set_fault_injector(nullptr);
  if (c == GoldenCase::kNestedCrash || c == GoldenCase::kNestedCrashInLeafLevel) {
    EXPECT_TRUE(!out.report.attempts.empty() &&
                out.report.attempts.front().crash_stage == "qmap");
  }
  return out;
}

GoldenRun run_case(CounterMode mode, GoldenCase c) {
  RecoveredCase r = recover_case(mode, c);
  return {describe(r.report), state_digest(*r.mem)};
}

/// What a recovered instance serves: its quarantine map, then the read
/// outcome (first data byte, or the error) of every line the fill wrote.
std::string served_state(SteinsMemory& mem) {
  std::string s;
  for (const QuarantineEntry& e : mem.quarantine().entries()) {
    s += std::to_string(e.lo) + "-" + std::to_string(e.hi) + ":" +
         quarantine_reason_name(e.reason) + (e.line ? ",line" : "") +
         (e.remapped ? ",remapped" : "") + (e.rewritten ? ",rewritten" : "") + ";";
  }
  const SitGeometry& geo = mem.geometry();
  const std::uint64_t leaves = 2 * (std::uint64_t{256} << 10) / kBlockSize;
  Cycle now = 0;
  for (std::uint64_t leaf = 0; leaf < leaves; ++leaf) {
    Block b{};
    try {
      now = mem.read_block(leaf * geo.leaf_coverage() * kBlockSize, now, &b);
      s += std::to_string(b[0]) + ";";
    } catch (const std::exception& e) {
      s += std::string(e.what()) + ";";
    }
  }
  return s;
}

void check_case(CounterMode mode, GoldenCase c, const char* report, std::uint64_t digest) {
  for (const char* jobs : {"1", "4"}) {
    ScopedJobs scoped(jobs);
    const GoldenRun run = run_case(mode, c);
    EXPECT_EQ(run.report, report) << "STEINS_JOBS=" << jobs;
    EXPECT_EQ(run.digest, digest) << "STEINS_JOBS=" << jobs;
  }
  // On a pool worker the walk runs inline instead of nesting a pool.
  ScopedJobs scoped("4");
  ThreadPool pool(1);
  const GoldenRun run = pool.submit([&] { return run_case(mode, c); }).get();
  EXPECT_EQ(run.report, report) << "on a pool worker";
  EXPECT_EQ(run.digest, digest) << "on a pool worker";
}

TEST(RecoveryGolden, GcClean) {
  check_case(CounterMode::kGeneral, GoldenCase::kClean,
             "supported=1 attack=0 level=-1 status=OK detail=\"\" nodes=4094 salvaged=0 "
             "quarantined=0 subtrees=0 lines=0 degraded=0 linc_unverified=[] ranges=[] "
             "reads=37630 writes=258 seconds=0.0038404000000000003 gave_up=0 cursor=4094 "
             "{reads=37630 writes=258 seconds=0.0038404000000000003 crashed=0 at=0 stage= "
             "cursor=4094}",
             0x7343563753473b87ULL);
}
TEST(RecoveryGolden, GcFaults) {
  check_case(CounterMode::kGeneral, GoldenCase::kFaults,
             "supported=1 attack=1 level=0 status=OK detail=\"child node erased during "
             "recovery\" nodes=4093 salvaged=8189 quarantined=2 subtrees=2 lines=1 "
             "degraded=0 linc_unverified=[1,0,] ranges=[565248-565760,565760-566272,] "
             "reads=37621 writes=258 seconds=0.0038395000000000005 gave_up=0 cursor=4094 "
             "{reads=37621 writes=258 seconds=0.0038395000000000005 crashed=0 at=0 stage= "
             "cursor=4094}",
             0x2237347386bbc631ULL);
}
TEST(RecoveryGolden, GcNestedCrash) {
  check_case(CounterMode::kGeneral, GoldenCase::kNestedCrash,
             "supported=1 attack=1 level=0 status=OK detail=\"child node erased during "
             "recovery\" nodes=4093 salvaged=8189 quarantined=2 subtrees=2 lines=1 "
             "degraded=0 linc_unverified=[1,0,] ranges=[565248-565760,565760-566272,] "
             "reads=39585 writes=515 seconds=0.0041130000000000003 gave_up=0 cursor=4094 "
             "{reads=1708 writes=257 seconds=0.00024790000000000001 crashed=1 at=2 "
             "stage=qmap cursor=4094} {reads=37877 writes=258 seconds=0.0038651000000000002 "
             "crashed=0 at=0 stage= cursor=4094}",
             0x2237347386bbc631ULL);
}
TEST(RecoveryGolden, GcNestedCrashInLeafLevel) {
  check_case(CounterMode::kGeneral, GoldenCase::kNestedCrashInLeafLevel,
             "supported=1 attack=1 level=0 status=OK detail=\"child node erased during "
             "recovery\" nodes=4093 salvaged=8189 quarantined=2 subtrees=2 lines=1 "
             "degraded=0 linc_unverified=[1,0,] ranges=[565248-565760,565760-566272,] "
             "reads=75446 writes=515 seconds=0.0076991000000000004 gave_up=0 cursor=4094 "
             "{reads=37569 writes=257 seconds=0.0038340000000000002 crashed=1 at=4 "
             "stage=qmap cursor=4094} {reads=37877 writes=258 seconds=0.0038651000000000002 "
             "crashed=0 at=0 stage= cursor=4094}",
             0x2237347386bbc631ULL);
}
// A nested crash at the level-0 qmap boundary (the tampered data line's
// quarantine) must leave nothing the retry cannot redo: the map is recorded
// and persisted before the line is remapped, so the retried recovery
// quarantines the same line and serves exactly what the uncrashed twin
// serves.
TEST(RecoveryGolden, LeafLevelQmapRetryServesWhatCleanRecoveryServes) {
  for (const CounterMode mode : {CounterMode::kGeneral, CounterMode::kSplit}) {
    RecoveredCase crashed = recover_case(mode, GoldenCase::kNestedCrashInLeafLevel);
    RecoveredCase twin = recover_case(mode, GoldenCase::kFaults);
    ASSERT_GT(crashed.report.attempts.size(), 1u);
    EXPECT_EQ(crashed.report.lines_quarantined, twin.report.lines_quarantined);
    EXPECT_EQ(crashed.report.lines_quarantined, 1u);
    EXPECT_EQ(served_state(*crashed.mem), served_state(*twin.mem));
  }
}

TEST(RecoveryGolden, ScClean) {
  check_case(CounterMode::kSplit, GoldenCase::kClean,
             "supported=1 attack=0 level=-1 status=OK detail=\"\" nodes=4094 salvaged=0 "
             "quarantined=0 subtrees=0 lines=0 degraded=0 linc_unverified=[] ranges=[] "
             "reads=254908 writes=258 seconds=0.025568199999999999 gave_up=0 cursor=4094 "
             "{reads=254908 writes=258 seconds=0.025568199999999999 crashed=0 at=0 stage= "
             "cursor=4094}",
             0xf25388d0717510ffULL);
}
TEST(RecoveryGolden, ScFaults) {
  check_case(CounterMode::kSplit, GoldenCase::kFaults,
             "supported=1 attack=1 level=0 status=OK detail=\"child node erased during "
             "recovery\" nodes=4093 salvaged=8189 quarantined=2 subtrees=2 lines=1 "
             "degraded=0 linc_unverified=[1,0,] ranges=[4521984-4526080,4526080-4530176,] "
             "reads=254843 writes=258 seconds=0.0255617 gave_up=0 cursor=4094 {reads=254843 "
             "writes=258 seconds=0.0255617 crashed=0 at=0 stage= cursor=4094}",
             0x49c3b00746941a89ULL);
}
TEST(RecoveryGolden, ScNestedCrash) {
  check_case(CounterMode::kSplit, GoldenCase::kNestedCrash,
             "supported=1 attack=1 level=0 status=OK detail=\"child node erased during "
             "recovery\" nodes=4093 salvaged=8189 quarantined=2 subtrees=2 lines=1 "
             "degraded=0 linc_unverified=[1,0,] ranges=[4521984-4526080,4526080-4530176,] "
             "reads=256814 writes=515 seconds=0.025835900000000002 gave_up=0 cursor=4094 "
             "{reads=1715 writes=257 seconds=0.00024860000000000003 crashed=1 at=2 "
             "stage=qmap cursor=4094} {reads=255099 writes=258 seconds=0.0255873 crashed=0 "
             "at=0 stage= cursor=4094}",
             0x49c3b00746941a89ULL);
}
TEST(RecoveryGolden, ScNestedCrashInLeafLevel) {
  check_case(CounterMode::kSplit, GoldenCase::kNestedCrashInLeafLevel,
             "supported=1 attack=1 level=0 status=OK detail=\"child node erased during "
             "recovery\" nodes=4093 salvaged=8189 quarantined=2 subtrees=2 lines=1 "
             "degraded=0 linc_unverified=[1,0,] ranges=[4521984-4526080,4526080-4530176,] "
             "reads=509554 writes=515 seconds=0.0511099 gave_up=0 cursor=4094 {reads=254455 "
             "writes=257 seconds=0.025522600000000003 crashed=1 at=4 stage=qmap cursor=4094} "
             "{reads=255099 writes=258 seconds=0.0255873 crashed=0 at=0 stage= cursor=4094}",
             0x49c3b00746941a89ULL);
}

}  // namespace
}  // namespace steins
