// Deterministic pseudo-random generators used by trace generation and tests.
//
// xoshiro256** (Blackman & Vigna) seeded via SplitMix64, plus uniform and
// Zipf samplers. Header-only for inlining in trace-generation hot loops.
#pragma once

#include <cassert>
#include <cmath>
#include <cstdint>
#include <vector>

namespace steins {

/// SplitMix64: used to expand a single 64-bit seed into xoshiro state.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Derive an independent child seed for stream `stream` of a top-level
/// `seed`. Two SplitMix64 finalizer hops decorrelate nearby (seed, stream)
/// pairs, unlike linear arithmetic on the seed (seed*k + i), where
/// neighbouring shards land on neighbouring SplitMix64 inputs and the
/// expanded xoshiro states can share long stretches of output. Parallel
/// shards (KV clients, per-controller workers) must seed through this.
constexpr std::uint64_t derive_stream_seed(std::uint64_t seed, std::uint64_t stream) {
  SplitMix64 outer(seed);
  SplitMix64 inner(outer.next() + stream);
  return inner.next();
}

/// xoshiro256**: fast, high-quality, deterministic PRNG.
class Xoshiro256 {
 public:
  explicit Xoshiro256(std::uint64_t seed = 0x5eed5eed5eed5eedULL) {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t below(std::uint64_t bound) {
    assert(bound > 0);
    // 128-bit multiply trick (Lemire); slight modulo bias is irrelevant for
    // workload generation but this avoids division entirely.
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * bound) >> 64);
  }

  /// Uniform double in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Bernoulli trial with probability p.
  bool chance(double p) { return uniform() < p; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4];
};

/// Zipf-distributed sampler over [0, n) with exponent s, using the
/// precomputed-CDF method (exact). A guide table narrows each sample's
/// binary search to the CDF entries that can hold its answer: guide_[b] is
/// the first entry >= b/kGuide (clamped to n-1), so u in [b/kGuide,
/// (b+1)/kGuide) lands in [guide_[b], guide_[b+1]]. kGuide is a power of
/// two and u a multiple of 2^-53, so u*kGuide and b/kGuide are exact and
/// the result equals a search over the whole CDF.
class ZipfSampler {
 public:
  static constexpr std::size_t kGuide = std::size_t{1} << 12;

  ZipfSampler(std::size_t n, double s) : cdf_(n), guide_(kGuide + 1) {
    assert(n > 0);
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (auto& c : cdf_) c /= sum;
    std::size_t i = 0;
    for (std::size_t b = 0; b <= kGuide; ++b) {
      const double edge = static_cast<double>(b) / static_cast<double>(kGuide);
      while (i < n - 1 && cdf_[i] < edge) ++i;
      guide_[b] = i;
    }
  }

  std::size_t sample(Xoshiro256& rng) const {
    const double u = rng.uniform();
    const auto b = static_cast<std::size_t>(u * static_cast<double>(kGuide));
    // Binary search for the first CDF entry >= u within the bucket's range.
    std::size_t lo = guide_[b], hi = guide_[b + 1];
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (cdf_[mid] < u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  std::size_t size() const { return cdf_.size(); }
  /// The cumulative distribution sample() inverts (cdf()[n-1] == 1).
  const std::vector<double>& cdf() const { return cdf_; }

 private:
  std::vector<double> cdf_;
  std::vector<std::size_t> guide_;
};

}  // namespace steins
