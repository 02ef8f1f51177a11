// One-time-pad generation for counter-mode encryption (CME, paper §II-B).
//
// The OTP for a 64 B data block is derived from (secret key, block address,
// counter): four AES-128 blocks in CTR fashion in the real profile, or eight
// SipHash-2-4 words in the fast profile (computed in lockstep by a SIMD
// kernel under the hw backend, crypto/sip_pad.hpp). XORing data with the
// OTP encrypts; XORing again decrypts.
//
// Pad-domain versions. Each version pins both the key-derivation domain
// constant and the CTR input-block layout, so pads from one version can
// always be regenerated later even after the layout evolves:
//
//   kV1  domain "OTP_KEY1"; lane i XORed into the counter's top 4 bits
//        (counter ^ (i << 60)). Legacy: lanes alias once a counter's top
//        bits are set — (counter, lane i) and (counter ^ (i << 60), lane 0)
//        produce the same AES input, i.e. the same 16-byte pad chunk.
//   kV2  (default) domain "OTP_KEY2"; the lane index lives in byte 7 of
//        the input block — the most-significant byte of the little-endian
//        address word, unused because block addresses are < 2^56 (checked).
//        The counter field is untouched, so lanes can never collide for
//        any counter value.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "common/config.hpp"
#include "common/types.hpp"
#include "crypto/aes.hpp"
#include "crypto/backend.hpp"
#include "crypto/siphash.hpp"

namespace steins::crypto {

/// Versioned pad domain: the value doubles as the key-derivation domain
/// constant, so each version's pads come from distinct key material.
enum class PadDomain : std::uint64_t {
  kV1 = 0x4f54505f4b455931ULL,  // "OTP_KEY1"
  kV2 = 0x4f54505f4b455932ULL,  // "OTP_KEY2"
};

class OtpEngine {
 public:
  /// `backend` pins the backend (tests/benchmarks): the AES backend in the
  /// real profile, the SipHash pad kernel choice in the fast one. nullopt
  /// follows the process-wide registry on every call.
  OtpEngine(CryptoProfile profile, std::uint64_t key_seed,
            PadDomain domain = PadDomain::kV2,
            std::optional<CryptoBackend> backend = std::nullopt);

  /// Generate the 64-byte pad for (address, counter). The counter here is
  /// the full encryption counter: for split-counter blocks callers pass
  /// major << 7 | minor composed by the CME layer.
  Block pad(Addr addr, std::uint64_t counter) const;

  CryptoProfile profile() const { return profile_; }
  PadDomain domain() const { return domain_; }

 private:
  CryptoProfile profile_;
  PadDomain domain_;
  std::optional<CryptoBackend> backend_;
  std::unique_ptr<Aes128> aes_;
  std::unique_ptr<SipHash24> sip_;
};

}  // namespace steins::crypto
