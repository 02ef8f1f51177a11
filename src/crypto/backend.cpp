#include "crypto/backend.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "crypto/aes.hpp"
#include "crypto/aes_ni.hpp"
#include "crypto/hmac.hpp"
#include "crypto/otp.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha_ni.hpp"
#include "crypto/sip_pad.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace steins::crypto {

namespace {

// -1 = not yet resolved; otherwise a CryptoBackend value. Resolution is
// deterministic (env + CPUID), so a racy first call is benign.
std::atomic<int> g_active{-1};
std::atomic<bool> g_sha_hw{false};

struct CpuFeatures {
  bool aesni = false;
  bool ssse3 = false;
  bool sse41 = false;
  bool sha = false;
  bool avx2 = false;  // CPUID bit and OS-enabled ymm state
};

CpuFeatures probe_cpu() {
  CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  std::uint64_t xcr0 = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx)) {
    f.aesni = (ecx & (1u << 25)) != 0;
    f.ssse3 = (ecx & (1u << 9)) != 0;
    f.sse41 = (ecx & (1u << 19)) != 0;
    const bool osxsave = (ecx & (1u << 27)) != 0;
    if (osxsave) {
      unsigned lo = 0, hi = 0;
      __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
      xcr0 = (static_cast<std::uint64_t>(hi) << 32) | lo;
    }
  }
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
    f.sha = (ebx & (1u << 29)) != 0;
    // The OS must save the ymm registers: XCR0 bits 1-2 (xmm, ymm).
    f.avx2 = (ebx & (1u << 5)) != 0 && (xcr0 & 0x6) == 0x6;
  }
#endif
  return f;
}

const CpuFeatures& cpu() {
  static const CpuFeatures f = probe_cpu();
  return f;
}

CryptoBackend clamp_to_available(CryptoBackend backend, const char* origin) {
  if (backend == CryptoBackend::kHw && !aes_hw_available()) {
    std::fprintf(stderr,
                 "steins: %s requested the hw crypto backend but AES-NI is "
                 "unavailable; using ttable\n",
                 origin);
    return CryptoBackend::kTtable;
  }
  return backend;
}

CryptoBackend resolve_default() {
  if (const char* env = std::getenv("STEINS_CRYPTO_BACKEND")) {
    if (const auto parsed = parse_backend(env)) {
      return clamp_to_available(*parsed, "STEINS_CRYPTO_BACKEND");
    }
    if (std::strcmp(env, "auto") != 0 && env[0] != '\0') {
      std::fprintf(stderr,
                   "steins: unknown STEINS_CRYPTO_BACKEND '%s' "
                   "(expected ref|ttable|hw|auto); using auto\n",
                   env);
    }
  }
  return aes_hw_available() ? CryptoBackend::kHw : CryptoBackend::kTtable;
}

void publish(CryptoBackend backend) {
  g_sha_hw.store(backend == CryptoBackend::kHw && sha_hw_available(),
                 std::memory_order_relaxed);
  g_active.store(static_cast<int>(backend), std::memory_order_release);
}

}  // namespace

const char* backend_name(CryptoBackend backend) {
  switch (backend) {
    case CryptoBackend::kRef: return "ref";
    case CryptoBackend::kTtable: return "ttable";
    case CryptoBackend::kHw: return "hw";
  }
  return "?";
}

std::optional<CryptoBackend> parse_backend(std::string_view name) {
  if (name == "ref") return CryptoBackend::kRef;
  if (name == "ttable") return CryptoBackend::kTtable;
  if (name == "hw") return CryptoBackend::kHw;
  return std::nullopt;
}

bool cpu_has_aesni() { return cpu().aesni && cpu().ssse3; }

bool cpu_has_shani() { return cpu().sha && cpu().sse41 && cpu().ssse3; }

bool cpu_has_avx2() { return cpu().avx2; }

bool aes_hw_available() { return aesni::compiled() && cpu_has_aesni(); }

bool sha_hw_available() { return shani::compiled() && cpu_has_shani(); }

bool pad_kernel_available(PadKernel kernel) {
  switch (kernel) {
    case PadKernel::kScalar: return true;
    case PadKernel::kAvx2: return sip_avx2::compiled() && cpu_has_avx2();
  }
  return false;
}

PadKernel hw_pad_kernel() {
  static const PadKernel kernel =
      pad_kernel_available(PadKernel::kAvx2) ? PadKernel::kAvx2 : PadKernel::kScalar;
  return kernel;
}

CryptoBackend active_backend() {
  const int v = g_active.load(std::memory_order_acquire);
  if (v >= 0) return static_cast<CryptoBackend>(v);
  const CryptoBackend resolved = resolve_default();
  publish(resolved);
  return resolved;
}

CryptoBackend set_crypto_backend(CryptoBackend backend) {
  const CryptoBackend actual = clamp_to_available(backend, "--crypto-backend");
  publish(actual);
  return actual;
}

bool sha_hw_active() {
  if (g_active.load(std::memory_order_acquire) < 0) active_backend();
  return g_sha_hw.load(std::memory_order_relaxed);
}

bool crypto_self_check(std::string* detail) {
  const auto fail = [&](const std::string& what) {
    if (detail != nullptr) *detail = what;
    return false;
  };

  std::vector<CryptoBackend> backends{CryptoBackend::kRef, CryptoBackend::kTtable};
  if (aes_hw_available()) backends.push_back(CryptoBackend::kHw);

  // FIPS-197 Appendix C.1 known answer, per backend, both directions.
  Aes128::Key key{};
  Aes128::BlockBytes pt{};
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(i);
  for (std::size_t i = 0; i < pt.size(); ++i) pt[i] = static_cast<std::uint8_t>(i * 0x11);
  constexpr Aes128::BlockBytes expect{0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30,
                                      0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a};
  for (const CryptoBackend b : backends) {
    const Aes128 aes(key, b);
    if (aes.encrypt(pt) != expect) {
      return fail(std::string("AES FIPS-197 encrypt mismatch on backend ") +
                  backend_name(b));
    }
    if (aes.decrypt(expect) != pt) {
      return fail(std::string("AES FIPS-197 decrypt mismatch on backend ") +
                  backend_name(b));
    }
  }

  // SHA-256("abc") known answer per backend (exercises SHA-NI under hw).
  constexpr std::uint8_t abc[3] = {'a', 'b', 'c'};
  constexpr std::uint8_t sha_abc[8] = {0xba, 0x78, 0x16, 0xbf, 0x8f, 0x01, 0xcf, 0xea};
  for (const CryptoBackend b : backends) {
    Sha256 h(b);
    h.update(abc);
    const auto digest = h.finalize();
    if (std::memcmp(digest.data(), sha_abc, sizeof(sha_abc)) != 0) {
      return fail(std::string("SHA-256 known-answer mismatch on backend ") +
                  backend_name(b));
    }
  }

  // RFC 4231 case 1 per backend, plus cross-backend pad/tag equality on a
  // handful of structured inputs.
  const std::uint8_t hmac_key[20] = {0x0b, 0x0b, 0x0b, 0x0b, 0x0b, 0x0b, 0x0b,
                                     0x0b, 0x0b, 0x0b, 0x0b, 0x0b, 0x0b, 0x0b,
                                     0x0b, 0x0b, 0x0b, 0x0b, 0x0b, 0x0b};
  const std::uint8_t hi_there[8] = {'H', 'i', ' ', 'T', 'h', 'e', 'r', 'e'};
  constexpr std::uint64_t rfc4231_case1_prefix = 0xb0344c61d8db3853ULL;
  for (const CryptoBackend b : backends) {
    const HmacSha256 mac({hmac_key, sizeof(hmac_key)}, b);
    if (mac.tag64(hi_there) != rfc4231_case1_prefix) {
      return fail(std::string("HMAC RFC4231 mismatch on backend ") + backend_name(b));
    }
  }

  for (std::uint64_t trial = 0; trial < 4; ++trial) {
    const Addr addr = (trial * 0x40c0ULL) & ~0x3fULL;
    const std::uint64_t ctr = trial * 0x123456789ULL + (trial << 60);
    Block pads[3];
    std::uint64_t tags[3];
    for (std::size_t i = 0; i < backends.size(); ++i) {
      const OtpEngine otp(CryptoProfile::kReal, 7, PadDomain::kV2, backends[i]);
      pads[i] = otp.pad(addr, ctr);
      const HmacSha256 mac({hmac_key, sizeof(hmac_key)}, backends[i]);
      tags[i] = mac.tag64({pads[i].data(), pads[i].size()});
    }
    for (std::size_t i = 1; i < backends.size(); ++i) {
      if (pads[i] != pads[0]) {
        return fail(std::string("OTP pad divergence between backends ") +
                    backend_name(backends[0]) + " and " + backend_name(backends[i]));
      }
      if (tags[i] != tags[0]) {
        return fail(std::string("HMAC tag divergence between backends ") +
                    backend_name(backends[0]) + " and " + backend_name(backends[i]));
      }
    }
  }

  // Fast profile: the SIMD SipHash pad kernel, when this host runs it,
  // against the scalar hash_words loop (lane adds that wrap past 2^64
  // included).
  if (pad_kernel_available(PadKernel::kAvx2)) {
    const SipHash24 sip(SipHash24::Key{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16});
    for (std::uint64_t trial = 0; trial < 8; ++trial) {
      const std::uint64_t addr = trial * 0x9e3779b97f4a7c15ULL;
      const std::uint64_t ctr = ~std::uint64_t{0} - trial * 0x123456789ULL;
      Block want{}, got{};
      sip_pad8(PadKernel::kScalar, sip, addr, ctr, want.data());
      sip_pad8(PadKernel::kAvx2, sip, addr, ctr, got.data());
      if (got != want) return fail("SipHash pad kernel avx2 diverges from the scalar reference");
    }
  }

  return true;
}

}  // namespace steins::crypto
