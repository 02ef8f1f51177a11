#include "crypto/sip_pad.hpp"

#ifdef STEINS_AVX2_COMPILED

#include <immintrin.h>

namespace steins::crypto::sip_avx2 {

namespace {

// Lanes 0-3 in h = 0, lanes 4-7 in h = 1. The two halves are independent
// dependency chains, so interleaving them keeps both vector ports busy.
struct State {
  __m256i v0[2], v1[2], v2[2], v3[2];
};

template <int R>
inline __m256i rotl(__m256i x) {
  return _mm256_or_si256(_mm256_slli_epi64(x, R), _mm256_srli_epi64(x, 64 - R));
}

inline __m256i rotl32(__m256i x) { return _mm256_shuffle_epi32(x, _MM_SHUFFLE(2, 3, 0, 1)); }

inline void round(State& s) {
  for (int h = 0; h < 2; ++h) {
    s.v0[h] = _mm256_add_epi64(s.v0[h], s.v1[h]);
    s.v1[h] = _mm256_xor_si256(rotl<13>(s.v1[h]), s.v0[h]);
    s.v0[h] = rotl32(s.v0[h]);
    s.v2[h] = _mm256_add_epi64(s.v2[h], s.v3[h]);
    s.v3[h] = _mm256_xor_si256(rotl<16>(s.v3[h]), s.v2[h]);
    s.v0[h] = _mm256_add_epi64(s.v0[h], s.v3[h]);
    s.v3[h] = _mm256_xor_si256(rotl<21>(s.v3[h]), s.v0[h]);
    s.v2[h] = _mm256_add_epi64(s.v2[h], s.v1[h]);
    s.v1[h] = _mm256_xor_si256(rotl<17>(s.v1[h]), s.v2[h]);
    s.v2[h] = rotl32(s.v2[h]);
  }
}

inline void compress(State& s, const __m256i m[2]) {
  for (int h = 0; h < 2; ++h) s.v3[h] = _mm256_xor_si256(s.v3[h], m[h]);
  round(s);
  round(s);
  for (int h = 0; h < 2; ++h) s.v0[h] = _mm256_xor_si256(s.v0[h], m[h]);
}

}  // namespace

bool compiled() { return true; }

void pad8(std::uint64_t k0, std::uint64_t k1, std::uint64_t addr, std::uint64_t counter,
          std::uint8_t* out) {
  const __m256i i0 = _mm256_set1_epi64x(static_cast<long long>(0x736f6d6570736575ULL ^ k0));
  const __m256i i1 = _mm256_set1_epi64x(static_cast<long long>(0x646f72616e646f6dULL ^ k1));
  const __m256i i2 = _mm256_set1_epi64x(static_cast<long long>(0x6c7967656e657261ULL ^ k0));
  const __m256i i3 = _mm256_set1_epi64x(static_cast<long long>(0x7465646279746573ULL ^ k1));
  State s{{i0, i0}, {i1, i1}, {i2, i2}, {i3, i3}};

  const __m256i a = _mm256_set1_epi64x(static_cast<long long>(addr));
  const __m256i lanes_lo = _mm256_set_epi64x(3LL << 56, 2LL << 56, 1LL << 56, 0);
  const __m256i lanes_hi = _mm256_set_epi64x(7LL << 56, 6LL << 56, 5LL << 56, 4LL << 56);
  const __m256i m_addr[2] = {_mm256_add_epi64(a, lanes_lo), _mm256_add_epi64(a, lanes_hi)};
  const __m256i c = _mm256_set1_epi64x(static_cast<long long>(counter));
  const __m256i m_ctr[2] = {c, c};
  const __m256i len = _mm256_set1_epi64x(16LL << 56);
  const __m256i m_len[2] = {len, len};
  compress(s, m_addr);
  compress(s, m_ctr);
  compress(s, m_len);

  const __m256i ff = _mm256_set1_epi64x(0xff);
  for (int h = 0; h < 2; ++h) s.v2[h] = _mm256_xor_si256(s.v2[h], ff);
  round(s);
  round(s);
  round(s);
  round(s);
  for (int h = 0; h < 2; ++h) {
    const __m256i w = _mm256_xor_si256(_mm256_xor_si256(s.v0[h], s.v1[h]),
                                       _mm256_xor_si256(s.v2[h], s.v3[h]));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 32 * h), w);
  }
}

}  // namespace steins::crypto::sip_avx2

#else  // !STEINS_AVX2_COMPILED

#include "common/status.hpp"

namespace steins::crypto::sip_avx2 {

bool compiled() { return false; }

void pad8(std::uint64_t, std::uint64_t, std::uint64_t, std::uint64_t, std::uint8_t*) {
  STEINS_CHECK(false, "AVX2 SipHash pad kernel invoked but not compiled in");
}

}  // namespace steins::crypto::sip_avx2

#endif  // STEINS_AVX2_COMPILED
