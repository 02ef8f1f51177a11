// CME engine and SIT node codec.
#include <gtest/gtest.h>

#include "secure/cme.hpp"
#include "sit/node.hpp"
#include "test_printers.hpp"

namespace steins {
namespace {

Block pattern(std::uint8_t base) {
  Block b;
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = static_cast<std::uint8_t>(base + i);
  return b;
}

class CmeBothProfiles : public ::testing::TestWithParam<CryptoProfile> {};

TEST_P(CmeBothProfiles, EncryptDecryptRoundTrip) {
  CmeEngine cme(GetParam(), 1234);
  const Block pt = pattern(3);
  const Block ct = cme.encrypt(pt, 0x1000, 42);
  EXPECT_NE(ct, pt);  // ciphertext differs
  EXPECT_EQ(cme.decrypt(ct, 0x1000, 42), pt);
}

TEST_P(CmeBothProfiles, CounterChangesCiphertext) {
  CmeEngine cme(GetParam(), 1234);
  const Block pt = pattern(5);
  EXPECT_NE(cme.encrypt(pt, 0x1000, 1), cme.encrypt(pt, 0x1000, 2));
  EXPECT_NE(cme.encrypt(pt, 0x1000, 1), cme.encrypt(pt, 0x1040, 1));
}

TEST_P(CmeBothProfiles, DataMacBindsAllInputs) {
  CmeEngine cme(GetParam(), 1234);
  const Block ct = pattern(9);
  const std::uint64_t base = cme.data_mac(ct, 0x40, 7, 0);
  EXPECT_NE(base, cme.data_mac(ct, 0x80, 7, 0));   // address
  EXPECT_NE(base, cme.data_mac(ct, 0x40, 8, 0));   // counter
  EXPECT_NE(base, cme.data_mac(ct, 0x40, 7, 1));   // aux (leaf major)
  Block ct2 = ct;
  ct2[17] ^= 1;
  EXPECT_NE(base, cme.data_mac(ct2, 0x40, 7, 0));  // ciphertext
}

INSTANTIATE_TEST_SUITE_P(Profiles, CmeBothProfiles,
                         ::testing::Values(CryptoProfile::kReal, CryptoProfile::kFast),
                         [](const ::testing::TestParamInfo<CryptoProfile>& info) {
                           return info.param == CryptoProfile::kReal ? "Real" : "Fast";
                         });

TEST(SitNode, GeneralBlockRoundTripsThroughImage) {
  SitNode n;
  n.id = {2, 77};
  for (std::size_t i = 0; i < kTreeArity; ++i) {
    n.gc.counters[i] = (0x123456789abcdULL * (i + 1)) & kCounter56Mask;
  }
  const Block img = n.to_block(0xdeadbeefcafef00dULL);
  std::uint64_t mac = 0;
  const SitNode back = SitNode::from_block(n.id, false, img, &mac);
  EXPECT_TRUE(back.counters_equal(n));
  EXPECT_EQ(mac, 0xdeadbeefcafef00dULL);
  EXPECT_EQ(node_image_hmac(img), 0xdeadbeefcafef00dULL);
}

TEST(SitNode, SplitBlockRoundTripsThroughImage) {
  SitNode n;
  n.id = {0, 3};
  n.split = true;
  n.sc.major = 99;
  for (std::size_t i = 0; i < kSplitArity; ++i) {
    n.sc.minors[i] = static_cast<std::uint8_t>((i * 5) % kMinorMax);
  }
  const Block img = n.to_block(42);
  const SitNode back = SitNode::from_block(n.id, true, img);
  EXPECT_TRUE(back.counters_equal(n));
  EXPECT_EQ(back.parent_value(), n.parent_value());
}

TEST(SitNode, ParentValueDispatchesOnVariant) {
  SitNode g;
  g.gc.counters = {1, 1, 1, 1, 1, 1, 1, 1};
  EXPECT_EQ(g.parent_value(), 8u);
  SitNode s;
  s.split = true;
  s.sc.major = 1;
  EXPECT_EQ(s.parent_value(), 64u);
}

}  // namespace
}  // namespace steins
