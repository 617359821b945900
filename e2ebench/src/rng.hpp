#pragma once
// The benchmark's own seeded generator.  Inputs are derived only from
// --seed through this file, never from a generator inside the program
// under test, so a change to the program cannot change its inputs.

#include <cmath>
#include <cstdint>

namespace e2e {

/// splitmix64 stream: tiny, fast, and fully specified, so a seed gives the
/// same inputs on every platform and compiler.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : state_(seed) {}

  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, bound); bound > 0.  The modulo bias is below 2^-40 for
  /// the small bounds used here.
  std::uint64_t below(std::uint64_t bound) noexcept { return next() % bound; }

  /// Uniform integer in [lo, hi].
  int range(int lo, int hi) noexcept {
    return lo +
           static_cast<int>(below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Uniform in [0, 1) with 53 random bits.
  double unit() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Exponential with the given mean (inverse-CDF draw).
  double exponential(double mean) noexcept {
    return -mean * std::log1p(-unit());
  }

 private:
  std::uint64_t state_;
};

/// Independent stream for one purpose of one seed (cells, order, sample,
/// schedule ...), so adding a draw to one stream never shifts another.
inline Rng stream(std::uint64_t seed, std::uint64_t purpose) noexcept {
  Rng mix(seed ^ (purpose * 0xd1b54a32d192ed03ull));
  return Rng(mix.next());
}

}  // namespace e2e
