// Deterministic pseudo-random number generation.
//
// Experiments in the paper depend on reproducible repositories, so every
// randomized component takes an explicit Rng seeded by the caller; nothing
// reads global entropy.
#ifndef XSM_UTIL_RANDOM_H_
#define XSM_UTIL_RANDOM_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

namespace xsm {

/// 64-bit FNV-1a over a byte string. Not cryptographic; used for seed
/// derivation and content fingerprints.
inline uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 0xCBF29CE484222325ull;  // FNV offset basis
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;  // FNV prime
  }
  return h;
}

/// Derives a deterministic seed for one query from a root seed and the
/// query's id. Concurrent queries must not share mutable RNG state — each
/// constructs its own Rng from this seed, so its draws are a pure function
/// of (root_seed, query_id) regardless of thread interleaving or execution
/// order. FNV-1a over the id, finalized with a SplitMix64 step so that
/// nearby ids map to unrelated seeds.
inline uint64_t SeedForQuery(uint64_t root_seed, std::string_view query_id) {
  uint64_t x = Fnv1a(query_id) ^ (root_seed + 0x9E3779B97F4A7C15ull);
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// xoshiro256**-based generator: fast, high quality, fully deterministic for
/// a given seed across platforms (unlike std::mt19937 distributions).
class Rng {
 public:
  explicit Rng(uint64_t seed = 42) { Seed(seed); }

  /// Re-seeds the generator. Uses SplitMix64 to expand the seed so that
  /// nearby seeds produce unrelated streams.
  void Seed(uint64_t seed) {
    uint64_t x = seed;
    for (auto& s : state_) {
      // SplitMix64 step.
      x += 0x9E3779B97F4A7C15ull;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      s = z ^ (z >> 31);
    }
  }

  /// Uniform 64-bit value.
  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). `bound` must be > 0.
  uint64_t Uniform(uint64_t bound) {
    assert(bound > 0);
    // Debiased multiply-shift (Lemire).
    __uint128_t m = static_cast<__uint128_t>(Next()) * bound;
    return static_cast<uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    assert(lo <= hi);
    return lo + static_cast<int64_t>(
                    Uniform(static_cast<uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial.
  bool WithProbability(double p) { return NextDouble() < p; }

  /// Samples an index in [0, weights.size()) proportionally to weights.
  /// Total weight must be positive.
  size_t WeightedIndex(const std::vector<double>& weights) {
    double total = 0;
    for (double w : weights) total += w;
    assert(total > 0);
    double r = NextDouble() * total;
    for (size_t i = 0; i < weights.size(); ++i) {
      r -= weights[i];
      if (r <= 0) return i;
    }
    return weights.size() - 1;
  }

  /// Approximately Gaussian(mean, stddev) via sum of uniforms (Irwin–Hall,
  /// n=12); plenty for workload-shaping purposes and branch-free.
  double Gaussian(double mean, double stddev) {
    double acc = 0;
    for (int i = 0; i < 12; ++i) acc += NextDouble();
    return mean + (acc - 6.0) * stddev;
  }

  /// Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = Uniform(i);
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

  /// Picks a uniformly random element. Container must be non-empty.
  template <typename T>
  const T& Pick(const std::vector<T>& v) {
    assert(!v.empty());
    return v[Uniform(v.size())];
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
};

}  // namespace xsm

#endif  // XSM_UTIL_RANDOM_H_
