// Crypto backend registry (parse/select/override), the startup self-check,
// versioned OTP pad domains (v1 lane aliasing vs. the v2 layout), and
// cross-backend equality of the composed OTP/MAC engines.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "crypto/aes.hpp"
#include "crypto/backend.hpp"
#include "crypto/mac.hpp"
#include "crypto/otp.hpp"

namespace steins::crypto {
namespace {

TEST(CryptoBackend, NamesRoundTripThroughParse) {
  for (CryptoBackend b : {CryptoBackend::kRef, CryptoBackend::kTtable, CryptoBackend::kHw}) {
    const auto parsed = parse_backend(backend_name(b));
    ASSERT_TRUE(parsed.has_value()) << backend_name(b);
    EXPECT_EQ(*parsed, b);
  }
}

TEST(CryptoBackend, ParseRejectsAutoAndGarbage) {
  EXPECT_FALSE(parse_backend("auto").has_value());
  EXPECT_FALSE(parse_backend("").has_value());
  EXPECT_FALSE(parse_backend("aesni").has_value());
  EXPECT_FALSE(parse_backend("HW").has_value());
}

TEST(CryptoBackend, HwAvailabilityImpliesCpuFeature) {
  // aes_hw_available() additionally requires that the translation unit was
  // compiled with ISA support, so it can only be a subset of the CPUID bit.
  if (aes_hw_available()) {
    EXPECT_TRUE(cpu_has_aesni());
  }
  if (sha_hw_available()) {
    EXPECT_TRUE(cpu_has_shani());
  }
}

TEST(CryptoBackend, SetAndScopedOverrideRestore) {
  const CryptoBackend before = active_backend();
  {
    ScopedCryptoBackend scoped(CryptoBackend::kRef);
    EXPECT_EQ(active_backend(), CryptoBackend::kRef);
    {
      ScopedCryptoBackend nested(CryptoBackend::kTtable);
      EXPECT_EQ(active_backend(), CryptoBackend::kTtable);
    }
    EXPECT_EQ(active_backend(), CryptoBackend::kRef);
  }
  EXPECT_EQ(active_backend(), before);
}

TEST(CryptoBackend, UnavailableHwClampsToTtable) {
  if (aes_hw_available()) {
    EXPECT_EQ(set_crypto_backend(CryptoBackend::kHw), CryptoBackend::kHw);
  } else {
    EXPECT_EQ(set_crypto_backend(CryptoBackend::kHw), CryptoBackend::kTtable);
  }
  set_crypto_backend(CryptoBackend::kTtable);  // leave a deterministic state
}

TEST(CryptoBackend, SelfCheckPasses) {
  std::string detail;
  EXPECT_TRUE(crypto_self_check(&detail)) << detail;
}

// ---------------------------------------------------------------------------
// Pad domains.

Aes128::Key otp_key(std::uint64_t seed, PadDomain domain) {
  // Mirror OtpEngine's key derivation: seed || domain constant, little-endian.
  Aes128::Key k{};
  const std::uint64_t d = static_cast<std::uint64_t>(domain);
  std::memcpy(k.data(), &seed, 8);
  std::memcpy(k.data() + 8, &d, 8);
  return k;
}

std::array<std::uint8_t, 16> pad_chunk(const Block& pad, unsigned lane) {
  std::array<std::uint8_t, 16> c;
  std::memcpy(c.data(), pad.data() + lane * 16, 16);
  return c;
}

TEST(PadDomain, V1LanesAliasOnceCounterTopBitsSet) {
  // The legacy layout XORs the lane index into counter bits 60..61, so
  // (counter, lane i) and (counter ^ (i << 60), lane 0) encrypt the same
  // input block: identical 16-byte pad chunks — the aliasing v2 fixes.
  OtpEngine otp(CryptoProfile::kReal, 99, PadDomain::kV1);
  const Addr addr = 0x1234'5678ULL;
  const std::uint64_t counter = 42;
  for (std::uint64_t i = 1; i < 4; ++i) {
    const Block a = otp.pad(addr, counter);
    const Block b = otp.pad(addr, counter ^ (i << 60));
    EXPECT_EQ(pad_chunk(a, i), pad_chunk(b, 0)) << "lane " << i;
  }
}

TEST(PadDomain, V2LanesNeverAlias) {
  // Same probe as above against v2: the lane index lives outside the
  // counter field, so the chunks must all differ.
  OtpEngine otp(CryptoProfile::kReal, 99, PadDomain::kV2);
  const Addr addr = 0x1234'5678ULL;
  const std::uint64_t counter = 42;
  for (std::uint64_t i = 1; i < 4; ++i) {
    const Block a = otp.pad(addr, counter);
    const Block b = otp.pad(addr, counter ^ (i << 60));
    EXPECT_NE(pad_chunk(a, i), pad_chunk(b, 0)) << "lane " << i;
  }
}

TEST(PadDomain, V1ReproducesLegacyLayout) {
  const std::uint64_t seed = 7;
  const Addr addr = 0xabcd00ULL;
  const std::uint64_t counter = 0x0102030405060708ULL;
  OtpEngine otp(CryptoProfile::kReal, seed, PadDomain::kV1);
  const Block pad = otp.pad(addr, counter);

  Aes128 aes(otp_key(seed, PadDomain::kV1));
  for (std::uint64_t i = 0; i < 4; ++i) {
    std::uint8_t in[16];
    std::memcpy(in, &addr, 8);
    const std::uint64_t ctr_i = counter ^ (i << 60);
    std::memcpy(in + 8, &ctr_i, 8);
    aes.encrypt_block(in);
    EXPECT_EQ(0, std::memcmp(in, pad.data() + i * 16, 16)) << "lane " << i;
  }
}

TEST(PadDomain, V2PutsLaneInAddressTopByte) {
  const std::uint64_t seed = 7;
  const Addr addr = 0xabcd00ULL;
  const std::uint64_t counter = 0xffff'ffff'ffff'fff0ULL;  // all top bits set: fine in v2
  OtpEngine otp(CryptoProfile::kReal, seed, PadDomain::kV2);
  const Block pad = otp.pad(addr, counter);

  Aes128 aes(otp_key(seed, PadDomain::kV2));
  for (std::uint64_t i = 0; i < 4; ++i) {
    std::uint8_t in[16];
    std::memcpy(in, &addr, 8);
    in[7] = static_cast<std::uint8_t>(i);
    std::memcpy(in + 8, &counter, 8);
    aes.encrypt_block(in);
    EXPECT_EQ(0, std::memcmp(in, pad.data() + i * 16, 16)) << "lane " << i;
  }
}

TEST(PadDomain, V1AndV2PadsAreDomainSeparated) {
  OtpEngine v1(CryptoProfile::kReal, 7, PadDomain::kV1);
  OtpEngine v2(CryptoProfile::kReal, 7, PadDomain::kV2);
  EXPECT_NE(v1.pad(0x40, 1), v2.pad(0x40, 1));
}

TEST(PadDomain, V2RejectsAddressesAbove56Bits) {
  OtpEngine otp(CryptoProfile::kReal, 7, PadDomain::kV2);
  EXPECT_NO_THROW(otp.pad((1ULL << 56) - 64, 1));
  EXPECT_THROW(otp.pad(1ULL << 56, 1), StatusError);
}

// ---------------------------------------------------------------------------
// Composed engines across backends.

TEST(CryptoBackend, OtpAndMacEnginesAgreeAcrossBackends) {
  Xoshiro256 rng(0x5e1ec7ULL);
  std::vector<CryptoBackend> backends{CryptoBackend::kTtable};
  if (aes_hw_available()) backends.push_back(CryptoBackend::kHw);

  OtpEngine otp_ref(CryptoProfile::kReal, 11, PadDomain::kV2, CryptoBackend::kRef);
  MacEngine mac_ref(CryptoProfile::kReal, 11, CryptoBackend::kRef);
  for (int trial = 0; trial < 50; ++trial) {
    const Addr addr = (rng.next() % (1ULL << 40)) & ~63ULL;
    const std::uint64_t counter = rng.next();
    Block data;
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());

    const Block expect_pad = otp_ref.pad(addr, counter);
    const std::uint64_t expect_mac = mac_ref.data_mac(data, addr, counter, 3);
    for (CryptoBackend b : backends) {
      OtpEngine otp(CryptoProfile::kReal, 11, PadDomain::kV2, b);
      MacEngine mac(CryptoProfile::kReal, 11, b);
      ASSERT_EQ(otp.pad(addr, counter), expect_pad) << backend_name(b) << " trial " << trial;
      ASSERT_EQ(mac.data_mac(data, addr, counter, 3), expect_mac)
          << backend_name(b) << " trial " << trial;
    }
  }
}

}  // namespace
}  // namespace steins::crypto
