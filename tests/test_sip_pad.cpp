// Eight-lane SipHash pad kernels (crypto/sip_pad.hpp) against the scalar
// hash_words loop, and the fast-profile OtpEngine's dispatch through the
// backend registry. A kernel the host did not compile or the CPU lacks is
// skipped by name.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "crypto/backend.hpp"
#include "crypto/otp.hpp"
#include "crypto/sip_pad.hpp"
#include "crypto/siphash.hpp"

namespace steins::crypto {
namespace {

// The fast-profile OTP key for (seed, domain), as OtpEngine derives it.
SipHash24 otp_sip(std::uint64_t seed, PadDomain domain) {
  SipHash24::Key k{};
  const std::uint64_t d = static_cast<std::uint64_t>(domain);
  std::memcpy(k.data(), &seed, 8);
  std::memcpy(k.data() + 8, &d, 8);
  return SipHash24(k);
}

Block reference_pad(const SipHash24& sip, std::uint64_t addr, std::uint64_t counter) {
  Block out{};
  for (std::uint64_t i = 0; i < 8; ++i) {
    const std::uint64_t w = sip.hash_words(addr + (i << 56), counter);
    std::memcpy(out.data() + i * 8, &w, 8);
  }
  return out;
}

// 10k seeded pairs (half with addresses past 2^56, where the lane add
// wraps), the boundary counters 0 and 2^64-1, for both pad domains.
void expect_kernel_matches_scalar(PadKernel kernel) {
  if (!pad_kernel_available(kernel)) {
    GTEST_SKIP() << "pad kernel " << pad_kernel_name(kernel)
                 << " not compiled in or not supported by this CPU";
  }
  for (const PadDomain domain : {PadDomain::kV1, PadDomain::kV2}) {
    const SipHash24 sip = otp_sip(0x5eed, domain);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> cases;
    Xoshiro256 rng(0x51b0 + static_cast<std::uint64_t>(domain));
    for (int i = 0; i < 10000; ++i) {
      const std::uint64_t a = rng.next();
      cases.emplace_back(i % 2 == 0 ? a & ((1ULL << 56) - 1) : a, rng.next());
    }
    constexpr std::uint64_t kEdgeAddrs[] = {0, 64, (1ULL << 56) - 64, 1ULL << 56, 0xf9ULL << 56,
                                            ~0ULL - 63, ~0ULL};
    for (const std::uint64_t addr : kEdgeAddrs) {
      for (const std::uint64_t ctr : {std::uint64_t{0}, ~std::uint64_t{0}}) {
        cases.emplace_back(addr, ctr);
      }
    }
    for (const auto& [addr, ctr] : cases) {
      Block got{};
      sip_pad8(kernel, sip, addr, ctr, got.data());
      ASSERT_EQ(got, reference_pad(sip, addr, ctr))
          << pad_kernel_name(kernel) << " addr=" << addr << " counter=" << ctr;
    }
  }
}

TEST(SipHashPad, ScalarKernelMatchesHashWordsLoop) {
  expect_kernel_matches_scalar(PadKernel::kScalar);
}

TEST(SipHashPad, Avx2KernelMatchesScalar) { expect_kernel_matches_scalar(PadKernel::kAvx2); }

TEST(SipHashPad, HwKernelIsAvx2WhenAvailable) {
  if (pad_kernel_available(PadKernel::kAvx2)) {
    EXPECT_TRUE(cpu_has_avx2());
    EXPECT_EQ(hw_pad_kernel(), PadKernel::kAvx2);
  } else {
    EXPECT_EQ(hw_pad_kernel(), PadKernel::kScalar);
  }
}

TEST(SipHashPad, FastOtpEngineAgreesAcrossBackendsAndRegistry) {
  // Pinned engines (ref/ttable: scalar loop; hw: hw_pad_kernel()) and an
  // unpinned engine under each forced backend all produce the same pads.
  for (const PadDomain domain : {PadDomain::kV1, PadDomain::kV2}) {
    const SipHash24 sip = otp_sip(11, domain);
    const OtpEngine unpinned(CryptoProfile::kFast, 11, domain);
    for (const CryptoBackend b :
         {CryptoBackend::kRef, CryptoBackend::kTtable, CryptoBackend::kHw}) {
      const OtpEngine pinned(CryptoProfile::kFast, 11, domain, b);
      ScopedCryptoBackend scoped(b);
      Xoshiro256 rng(77);
      for (int i = 0; i < 500; ++i) {
        const std::uint64_t addr = rng.next() & ~std::uint64_t{63};
        const std::uint64_t ctr = i % 3 == 0 ? ~std::uint64_t{0} : rng.next();
        const Block want = reference_pad(sip, addr, ctr);
        ASSERT_EQ(pinned.pad(addr, ctr), want) << backend_name(b);
        ASSERT_EQ(unpinned.pad(addr, ctr), want) << backend_name(b);
      }
    }
  }
}

}  // namespace
}  // namespace steins::crypto
