#include "crypto/siphash.hpp"

#include <cstring>

#include "crypto/sip_pad.hpp"

namespace steins::crypto {

SipHash24::SipHash24(const Key& key) {
  k0_ = detail::load_le64(key.data());
  k1_ = detail::load_le64(key.data() + 8);
}

const char* pad_kernel_name(PadKernel kernel) {
  switch (kernel) {
    case PadKernel::kScalar: return "scalar";
    case PadKernel::kAvx2: return "avx2";
  }
  return "?";
}

void sip_pad8(PadKernel kernel, const SipHash24& sip, std::uint64_t addr,
              std::uint64_t counter, std::uint8_t* out) {
  if (kernel == PadKernel::kAvx2) {
    sip_avx2::pad8(sip.k0(), sip.k1(), addr, counter, out);
    return;
  }
  for (std::uint64_t i = 0; i < 8; ++i) {
    const std::uint64_t w = sip.hash_words(addr + (i << 56), counter);
    std::memcpy(out + i * 8, &w, 8);
  }
}

}  // namespace steins::crypto
