// Eight-lane SipHash-2-4 pad kernels for the fast crypto profile.
//
// The fast-profile OTP for a 64 B block is eight SipHash-2-4 words, lane i
// hashing (addr + (i << 56), counter) under the OTP key. The lanes are
// independent, so they can run in lockstep in SIMD registers:
//
//   kScalar   the eight hash_words() calls one after another (reference)
//   kAvx2     two ymm sets of four lanes; rotates by shift/or, the 32-bit
//             rotate by vpshufd
//
// Both kernels are bit-identical by construction (same function, same lane
// inputs). The AVX2 kernel lives in its own translation unit compiled with
// `-mavx2` when the compiler supports it (STEINS_AVX2_COMPILED set per-file
// by CMake); otherwise it builds as a stub with compiled() == false. The
// backend registry runs AVX2 under the hw backend when the CPU has it, and
// the scalar loop under ref and ttable (crypto/backend.hpp).
#pragma once

#include <cstdint>

#include "crypto/siphash.hpp"

namespace steins::crypto {

enum class PadKernel { kScalar, kAvx2 };

/// Short stable name: "scalar", "avx2".
const char* pad_kernel_name(PadKernel kernel);

/// True when the kernel was compiled in AND the CPU (and OS) support it.
/// kScalar is always available.
bool pad_kernel_available(PadKernel kernel);

/// The kernel the hw backend dispatches to: AVX2 when available, else
/// scalar.
PadKernel hw_pad_kernel();

/// out[8i .. 8i+8) = sip.hash_words(addr + (i << 56), counter), i = 0..7,
/// computed by `kernel`, which must be available.
void sip_pad8(PadKernel kernel, const SipHash24& sip, std::uint64_t addr,
              std::uint64_t counter, std::uint8_t* out);

namespace sip_avx2 {
bool compiled();
void pad8(std::uint64_t k0, std::uint64_t k1, std::uint64_t addr, std::uint64_t counter,
          std::uint8_t* out);
}  // namespace sip_avx2

}  // namespace steins::crypto
