#include "crypto/otp.hpp"

#include <cstring>

#include "common/status.hpp"
#include "crypto/sip_pad.hpp"

namespace steins::crypto {

namespace {

Aes128::Key key_from_seed(std::uint64_t seed, std::uint64_t domain) {
  Aes128::Key k{};
  std::memcpy(k.data(), &seed, 8);
  std::memcpy(k.data() + 8, &domain, 8);
  return k;
}

}  // namespace

OtpEngine::OtpEngine(CryptoProfile profile, std::uint64_t key_seed, PadDomain domain,
                     std::optional<CryptoBackend> backend)
    : profile_(profile), domain_(domain), backend_(backend) {
  // Domain-separate the OTP key from MAC keys derived from the same seed
  // (and v1 pads from v2 pads: the domain constant is part of the key).
  const std::uint64_t otp_domain = static_cast<std::uint64_t>(domain_);
  if (profile_ == CryptoProfile::kReal) {
    const Aes128::Key key = key_from_seed(key_seed, otp_domain);
    aes_ = backend ? std::make_unique<Aes128>(key, *backend)
                   : std::make_unique<Aes128>(key);
  } else {
    SipHash24::Key k{};
    std::memcpy(k.data(), &key_seed, 8);
    std::memcpy(k.data() + 8, &otp_domain, 8);
    sip_ = std::make_unique<SipHash24>(k);
  }
}

Block OtpEngine::pad(Addr addr, std::uint64_t counter) const {
  Block out{};
  if (profile_ == CryptoProfile::kReal) {
    // CTR mode: all 4 lane inputs are assembled into the output buffer and
    // encrypted in place with one 4-lane kernel call (AES-NI pipelines the
    // rounds across lanes; software backends loop).
    if (domain_ == PadDomain::kV1) {
      // Legacy layout: E_K(addr || counter ^ (i << 60)); kept only so
      // pre-v2 traces stay decodable.
      for (std::uint64_t i = 0; i < 4; ++i) {
        std::uint8_t* in = out.data() + i * Aes128::kBlockBytes;
        std::memcpy(in, &addr, 8);
        const std::uint64_t ctr_i = counter ^ (i << 60);
        std::memcpy(in + 8, &ctr_i, 8);
      }
    } else {
      // v2 layout: E_K(addr[0..6] || lane || counter). The lane index
      // occupies the address word's unused top byte, leaving the counter
      // intact so lanes cannot alias for any counter value.
      STEINS_CHECK(addr < (1ULL << 56), "OTP v2 pad: block address exceeds 56 bits");
      for (std::uint64_t i = 0; i < 4; ++i) {
        std::uint8_t* in = out.data() + i * Aes128::kBlockBytes;
        std::memcpy(in, &addr, 8);
        in[7] = static_cast<std::uint8_t>(i);
        std::memcpy(in + 8, &counter, 8);
      }
    }
    aes_->encrypt4(out.data());
  } else {
    // Eight SipHash words, lane i over (addr + (i << 56), counter). The hw
    // backend hashes the lanes in lockstep with the AVX2 kernel when the CPU
    // has it; ref and ttable keep the scalar loop as the reference.
    const CryptoBackend b = backend_ ? *backend_ : active_backend();
    const PadKernel kernel = b == CryptoBackend::kHw ? hw_pad_kernel() : PadKernel::kScalar;
    sip_pad8(kernel, *sip_, addr, counter, out.data());
  }
  return out;
}

}  // namespace steins::crypto
