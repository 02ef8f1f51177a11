// Whole-tree consistency checker: clean trees pass, corruption is found,
// and every scheme leaves a checkable tree after runtime and recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "fault/adversary.hpp"
#include "schemes/steins.hpp"
#include "sit/tree_checker.hpp"
#include "test_util.hpp"

namespace steins {
namespace {

using testutil::Driver;
using testutil::small_config;

/// Reference audit: the exhaustive walk over every node of the tree that
/// check_tree replaced. check_tree must report exactly what this reports.
TreeCheckReport check_tree_exhaustive(SecureMemoryBase& mem, std::size_t max_issues) {
  TreeCheckReport report;
  const SitGeometry& geo = mem.geometry();
  NvmDevice& dev = mem.device();
  MetadataCache& cache = mem.metadata_cache();
  const bool split_leaves = mem.config().counter_mode == CounterMode::kSplit;

  auto add_issue = [&](NodeId id, std::string what) {
    if (report.issues.size() < max_issues) {
      report.issues.push_back(TreeCheckIssue{id, std::move(what)});
    }
  };
  auto parent_counter = [&](NodeId id) -> std::uint64_t {
    if (const auto pending = mem.pending_parent_counter(id)) return *pending;
    if (geo.is_top_level(id)) return mem.root_counters()[id.index];
    const NodeId pid = geo.parent_of(id);
    const Addr paddr = geo.node_addr(pid);
    if (const MetadataLine* line = cache.peek(paddr)) {
      return line->payload.gc.counters[geo.slot_in_parent(id)];
    }
    if (!dev.contains(paddr)) return 0;
    const SitNode pnode = SitNode::from_block(pid, false, dev.peek_block(paddr));
    return pnode.gc.counters[geo.slot_in_parent(id)];
  };

  for (unsigned level = 0; level < geo.num_levels(); ++level) {
    const bool split = split_leaves && level == 0;
    for (std::uint64_t index = 0; index < geo.level_count(level); ++index) {
      const NodeId id{level, index};
      const Addr addr = geo.node_addr(id);
      const bool persisted = dev.contains(addr);
      std::uint64_t stored = 0;
      SitNode nvm_node;
      if (persisted) {
        ++report.nodes_persisted;
        nvm_node = SitNode::from_block(id, split, dev.peek_block(addr), &stored);
        const std::uint64_t pc = parent_counter(id);
        const std::uint64_t mac = mem.cme().mac().node_mac(nvm_node.payload(), addr, pc);
        if (mac != stored) {
          add_issue(id, "stored HMAC does not verify against the parent counter");
        }
      } else if (parent_counter(id) != 0) {
        add_issue(id, "parent counter nonzero but node never persisted");
      }

      if (const MetadataLine* line = cache.peek(addr); line != nullptr && !line->dirty) {
        if (!persisted) {
          if (line->payload.parent_value() != 0) {
            add_issue(id, "clean cached node has counters but no NVM image");
          }
        } else if (!line->payload.counters_equal(nvm_node)) {
          add_issue(id, "clean cached node diverges from its NVM image");
        }
      }
      ++report.nodes_checked;
    }
  }
  return report;
}

/// check_tree against the exhaustive reference, untruncated and truncated.
void expect_matches_exhaustive(SecureMemoryBase& mem) {
  for (const std::size_t max_issues : {std::size_t{1} << 20, std::size_t{2}, std::size_t{16}}) {
    const TreeCheckReport want = check_tree_exhaustive(mem, max_issues);
    const TreeCheckReport got = check_tree(mem, max_issues);
    EXPECT_EQ(got.nodes_checked, want.nodes_checked);
    EXPECT_EQ(got.nodes_persisted, want.nodes_persisted);
    ASSERT_EQ(got.issues.size(), want.issues.size()) << "max_issues=" << max_issues;
    for (std::size_t i = 0; i < want.issues.size(); ++i) {
      EXPECT_EQ(got.issues[i].node, want.issues[i].node) << "issue " << i;
      EXPECT_EQ(got.issues[i].what, want.issues[i].what) << "issue " << i;
    }
  }
}

struct Variant {
  Scheme scheme;
  CounterMode mode;
  const char* name;
};

void PrintTo(const Variant& v, std::ostream* os) { *os << v.name; }

class TreeChecker : public ::testing::TestWithParam<Variant> {};

TEST_P(TreeChecker, CleanAfterRuntimeAndDrain) {
  auto mem = make_scheme(GetParam().scheme, small_config(GetParam().mode));
  auto* base = dynamic_cast<SecureMemoryBase*>(mem.get());
  Driver d(*mem);
  d.write_random(2000, 100'000);
  if (auto* st = dynamic_cast<SteinsMemory*>(mem.get())) {
    Cycle t = d.now();
    st->drain_nv_buffer(t);
  }
  base->channel().drain_all(d.now());
  const TreeCheckReport r = check_tree(*base);
  EXPECT_TRUE(r.ok()) << r.issues.front().what << " at level " << r.issues.front().node.level;
  EXPECT_GT(r.nodes_persisted, 0u);
}

TEST_P(TreeChecker, CleanAfterFullFlush) {
  auto mem = make_scheme(GetParam().scheme, small_config(GetParam().mode));
  auto* base = dynamic_cast<SecureMemoryBase*>(mem.get());
  Driver d(*mem);
  d.write_random(1500, 80'000);
  base->flush_all_metadata();
  const TreeCheckReport r = check_tree(*base);
  EXPECT_TRUE(r.ok()) << r.issues.front().what;
}

TEST_P(TreeChecker, MatchesExhaustiveWalkMidRun) {
  // Dirty cache, queued writes and (for Steins) pending parent counters.
  auto mem = make_scheme(GetParam().scheme, small_config(GetParam().mode));
  auto* base = dynamic_cast<SecureMemoryBase*>(mem.get());
  Driver d(*mem);
  d.write_random(2000, 100'000);
  expect_matches_exhaustive(*base);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, TreeChecker,
    ::testing::Values(Variant{Scheme::kWriteBack, CounterMode::kGeneral, "WB_GC"},
                      Variant{Scheme::kAnubis, CounterMode::kGeneral, "ASIT"},
                      Variant{Scheme::kStar, CounterMode::kGeneral, "STAR"},
                      Variant{Scheme::kSteins, CounterMode::kGeneral, "Steins_GC"},
                      Variant{Scheme::kSteins, CounterMode::kSplit, "Steins_SC"}),
    [](const ::testing::TestParamInfo<Variant>& info) { return info.param.name; });

TEST(TreeCheckerDetect, FindsTamperedNode) {
  SteinsMemory mem(small_config(CounterMode::kGeneral));
  Driver d(mem);
  d.write_random(800, 50'000);
  mem.flush_all_metadata();
  ASSERT_TRUE(check_tree(mem).ok());

  // Corrupt an arbitrary persisted leaf and expect exactly that complaint.
  const SitGeometry& geo = mem.geometry();
  for (std::uint64_t i = 0; i < geo.level_count(0); ++i) {
    if (mem.device().contains(geo.node_addr({0, i}))) {
      tamper_line(mem.device(), mem.geometry().node_addr({0, i}), 13);
      break;
    }
  }
  const TreeCheckReport r = check_tree(mem);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.issues.front().node.level, 0u);
}

/// Differential audit on a damaged tree: a tampered node, an erased node
/// under a nonzero parent counter, and a clean cached node that diverged
/// from its NVM image.
void damaged_tree_matches_exhaustive(CounterMode mode) {
  SteinsMemory mem(small_config(mode));
  Driver d(mem);
  d.write_random(3000, 100'000);
  Cycle t = d.now();
  mem.drain_nv_buffer(t);
  mem.channel().drain_all(t);
  d.write_random(300, 100'000);  // leave some parent counters pending
  const SitGeometry& geo = mem.geometry();
  NvmDevice& dev = mem.device();
  MetadataCache& cache = mem.metadata_cache();
  const std::vector<Addr> persisted =
      dev.resident_blocks(geo.meta_base(), geo.meta_base() + geo.total_nodes() * kBlockSize);
  ASSERT_GE(persisted.size(), 3u);

  // Tamper with the first persisted leaf.
  const NodeId tampered = geo.node_at(persisted.front());
  tamper_line(mem.device(), mem.geometry().node_addr(tampered), 9);

  // Erase the last persisted node whose parent counter is nonzero.
  std::optional<NodeId> erased;
  for (auto it = persisted.rbegin(); it != persisted.rend() && !erased; ++it) {
    const NodeId id = geo.node_at(*it);
    if (id == tampered || geo.is_top_level(id)) continue;
    const Addr paddr = geo.node_addr(geo.parent_of(id));
    const MetadataLine* pl = cache.peek(paddr);
    const std::uint64_t pc =
        pl != nullptr ? pl->payload.gc.counters[geo.slot_in_parent(id)]
                      : SitNode::from_block(geo.parent_of(id), false, dev.peek_block(paddr))
                            .gc.counters[geo.slot_in_parent(id)];
    if (pc != 0) erased = id;
  }
  ASSERT_TRUE(erased.has_value());
  ASSERT_TRUE(dev.remap_line(geo.node_addr(*erased)));

  // Diverge a clean cached internal node from its NVM image.
  std::optional<NodeId> diverged;
  cache.for_each([&](MetadataLine& line) {
    if (diverged || line.dirty || line.payload.id.level == 0 || !dev.contains(line.tag)) return;
    line.payload.gc.counters[0] += 1;
    diverged = line.payload.id;
  });
  ASSERT_TRUE(diverged.has_value());

  const TreeCheckReport full = check_tree_exhaustive(mem, std::size_t{1} << 20);
  const auto reported = [&](NodeId id) {
    return std::any_of(full.issues.begin(), full.issues.end(),
                       [&](const TreeCheckIssue& i) { return i.node == id; });
  };
  EXPECT_TRUE(reported(tampered));
  EXPECT_TRUE(reported(*erased));
  EXPECT_TRUE(reported(*diverged));
  expect_matches_exhaustive(mem);
}

TEST(TreeCheckerDetect, DamagedTreeMatchesExhaustiveWalkGC) {
  damaged_tree_matches_exhaustive(CounterMode::kGeneral);
}

TEST(TreeCheckerDetect, DamagedTreeMatchesExhaustiveWalkSC) {
  damaged_tree_matches_exhaustive(CounterMode::kSplit);
}

TEST(TreeCheckerDetect, CleanAfterSteinsRecovery) {
  SteinsMemory mem(small_config(CounterMode::kGeneral));
  Driver d(mem);
  d.write_random(2000, 100'000);
  mem.crash();
  ASSERT_TRUE(mem.recover().ok());
  // Flush the recovered (dirty) nodes and audit the whole tree.
  mem.flush_all_metadata();
  const TreeCheckReport r = check_tree(mem);
  EXPECT_TRUE(r.ok()) << r.issues.front().what;
}

}  // namespace
}  // namespace steins
