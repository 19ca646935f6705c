// Deterministic pseudo-random number generation.
//
// All randomized components (Monte-Carlo fault yield, workload generators,
// property tests) take an explicit rng so experiments are reproducible.
// The generator is xoshiro256** (Blackman & Vigna), seeded via splitmix64.
//
// Parallel sites never share one stream: they derive one substream() per
// work item, which depends only on (seed, item index) — never on thread
// count or scheduling — so parallel runs reproduce serial runs bit for bit.
#pragma once

#include <cstdint>

namespace compact {

class rng {
 public:
  explicit rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) : seed_(seed) {
    // splitmix64 seeding: decorrelates nearby seeds.
    auto next = [&seed]() {
      seed += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = seed;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      return z ^ (z >> 31);
    };
    for (auto& word : state_) word = next();
  }

  /// Splittable substream `index` of this generator: a fresh generator
  /// derived only from the constructing seed and `index`. Adjacent indices
  /// are decorrelated (the pair is fed through splitmix64 finalizers) and
  /// substreams are independent of how many values the parent has drawn.
  [[nodiscard]] rng substream(std::uint64_t index) const {
    return rng(mix64(seed_ + mix64(index + 0x632be59bd9b4e019ULL)));
  }

  /// Uniform 64-bit value.
  std::uint64_t next_u64() {
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

  /// Uniform integer in [0, bound). bound must be positive.
  std::uint64_t next_below(std::uint64_t bound) {
    // Multiply-shift rejection-free mapping (Lemire); bias is negligible for
    // the bounds used in this library (<= 2^32). __extension__ keeps the
    // GCC/Clang-only 128-bit type quiet under -Wpedantic.
    __extension__ using uint128 = unsigned __int128;
    return static_cast<std::uint64_t>(
        (static_cast<uint128>(next_u64()) * bound) >> 64);
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Fair coin flip.
  bool next_bool() { return (next_u64() & 1) != 0; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  static constexpr std::uint64_t mix64(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t seed_;
  std::uint64_t state_[4];
};

}  // namespace compact
