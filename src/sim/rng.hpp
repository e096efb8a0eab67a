// Deterministic random number generation for reproducible experiments.
//
// Every stochastic component (workload generators, load balancers, loss
// models) draws from its own `Rng` seeded from the experiment seed plus a
// component-specific stream id, so adding a component never perturbs the
// random sequence seen by the others.
//
// An `Rng` holds only its seed until its first draw, which builds the
// `std::mt19937_64` engine (2.5 KB, ~1 µs to seed) on the heap. Most
// generators never draw -- a load balancer on a loss-free run, a queue
// without probabilistic ECN -- so they cost 16 B and no seeding. The engine
// is seeded with the same value either way, so every sequence is exactly
// what an eagerly seeded engine would produce.
#pragma once

#include <cstdint>
#include <memory>
#include <random>

namespace uno {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 1) : seed_(seed) {}

  /// Move-only: a copy would deep-copy a built engine. A moved generator
  /// continues the original sequence.
  Rng(Rng&&) noexcept = default;
  Rng& operator=(Rng&&) noexcept = default;
  Rng(const Rng&) = delete;
  Rng& operator=(const Rng&) = delete;

  /// Derive an independent stream: mixes `stream` into the seed with
  /// splitmix64 so nearby ids produce uncorrelated engines.
  static Rng stream(std::uint64_t seed, std::uint64_t stream) {
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return Rng(z ^ (z >> 31));
  }

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_below(std::uint64_t n) {
    return std::uniform_int_distribution<std::uint64_t>(0, n - 1)(gen());
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(gen());
  }

  /// Uniform double in [0, 1).
  double uniform() { return std::uniform_real_distribution<double>(0.0, 1.0)(gen()); }

  /// Exponentially distributed value with the given mean.
  double exponential(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(gen());
  }

  /// Bernoulli trial.
  bool chance(double p) { return uniform() < p; }

 private:
  std::mt19937_64& gen() {
    if (!engine_) [[unlikely]]
      engine_ = std::make_unique<std::mt19937_64>(seed_);
    return *engine_;
  }

  std::uint64_t seed_;
  std::unique_ptr<std::mt19937_64> engine_;
};

}  // namespace uno
