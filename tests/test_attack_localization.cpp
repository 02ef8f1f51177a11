// Paper §III-H: "Steins detects the attacked node levels via top-down
// verification, thus facilitating attack localization." These tests tamper
// at chosen levels and assert the reported level.
#include <gtest/gtest.h>

#include <vector>

#include "fault/adversary.hpp"
#include "schemes/steins.hpp"
#include "test_util.hpp"

namespace steins {
namespace {

using testutil::Driver;
using testutil::small_config;

/// All dirty nodes of one level whose address exists in NVM.
std::vector<NodeId> persisted_dirty_at_level(SteinsMemory& mem, unsigned level) {
  std::vector<NodeId> out;
  const SitGeometry& geo = mem.geometry();
  mem.metadata_cache().for_each([&](const MetadataLine& line) {
    if (line.dirty && line.payload.id.level == level &&
        mem.device().contains(geo.node_addr(line.payload.id))) {
      out.push_back(line.payload.id);
    }
  });
  return out;
}

class AttackLocalization : public ::testing::TestWithParam<unsigned> {};

TEST_P(AttackLocalization, TamperedStaleNodeReportedAtItsLevel) {
  const unsigned level = GetParam();
  SteinsMemory mem(small_config(CounterMode::kGeneral));
  Driver d(mem, 31 + level);
  d.write_random(4000, 150'000);
  Cycle t = d.now();
  mem.drain_nv_buffer(t);

  const auto candidates = persisted_dirty_at_level(mem, level);
  if (candidates.empty()) GTEST_SKIP() << "no persisted dirty node at level " << level;

  mem.crash();
  tamper_line(mem.device(), mem.geometry().node_addr(candidates.front()), 20);
  const RecoveryResult r = mem.recover();
  ASSERT_TRUE(r.attack_detected);
  // The tampered node fails either its own stale verification (reported at
  // its level) or its parent's child-HMAC check (also its level).
  EXPECT_EQ(r.attacked_level, static_cast<int>(level)) << r.attack_detail;
}

INSTANTIATE_TEST_SUITE_P(Levels, AttackLocalization, ::testing::Values(0u, 1u, 2u),
                         [](const ::testing::TestParamInfo<unsigned>& info) {
                           return "Level" + std::to_string(info.param);
                         });

TEST(AttackLocalization, TamperedDataReportedAtLeafLevel) {
  SteinsMemory mem(small_config(CounterMode::kGeneral));
  Driver d(mem);
  d.write(1234);
  d.write(1234);  // leaf dirty at crash
  mem.crash();
  tamper_line(mem.device(), 1234 * kBlockSize, 9);
  const RecoveryResult r = mem.recover();
  ASSERT_TRUE(r.attack_detected);
  EXPECT_EQ(r.attacked_level, 0) << r.attack_detail;
}

}  // namespace
}  // namespace steins
