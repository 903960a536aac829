#ifndef DCWS_UTIL_RNG_H_
#define DCWS_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dcws {

// Deterministic pseudo-random number generator (xoshiro256++ seeded via
// SplitMix64).  Every source of randomness in the library — workload
// generators, Algorithm 2 clients, tie-breaking — draws from an Rng so
// that a (seed, configuration) pair reproduces a run bit-for-bit.
//
// Not thread-safe; each client or test thread owns its own Rng.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Uniform over [0, 2^64).
  uint64_t NextUint64();

  // Uniform over [0, bound); bound must be > 0.  Uses rejection sampling
  // (Lemire) to avoid modulo bias.
  uint64_t NextBelow(uint64_t bound);

  // Uniform over [lo, hi] inclusive; requires lo <= hi.
  int64_t NextInRange(int64_t lo, int64_t hi);

  // Uniform over [0, 1).
  double NextDouble();

  // True with probability p (clamped to [0,1]).
  bool NextBool(double p);

  // Exponentially distributed with the given mean (> 0).
  double NextExponential(double mean);

  // Zipf-distributed rank in [0, n) with exponent `s` (s >= 0; s == 0 is
  // uniform).  O(log n) per draw after O(n) table construction captured in
  // the returned sampler.
  class ZipfSampler {
   public:
    ZipfSampler(size_t n, double s);
    size_t Sample(Rng& rng) const;
    size_t size() const { return cdf_.size(); }

   private:
    std::vector<double> cdf_;  // normalized cumulative weights
  };

  // Forks an independent child generator; the child stream does not
  // overlap the parent's for practical purposes.
  Rng Fork();

 private:
  uint64_t s_[4];
};

}  // namespace dcws

#endif  // DCWS_UTIL_RNG_H_
