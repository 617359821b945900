#pragma once
// Seeded job generators: simulation cells rendered as service job lines,
// and the Poisson arrival schedule of the paced workload.
//
// Everything here is a pure function of the seed: the same seed gives a
// byte-identical line stream and schedule (tests/test_e2ebench.cpp).

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "rng.hpp"

namespace e2e {

/// Fault family a cell carries; every family but kNone is an active plan.
enum class FaultKind { kNone, kNoise, kBurst, kStragglerDwell, kLinkFlap };

/// One simulation cell: everything a job line selects.
struct Cell {
  std::string machine;
  std::string algo;
  int threads = 0;
  int iterations = 0;
  bool scatter = false;
  FaultKind fault = FaultKind::kNone;
  // Fault knobs as fixed-point integers so lines render exactly: tenths
  // of their unit, except the straggler fraction (hundredths).
  int a10 = 0, b10 = 0, c10 = 0;
  std::uint64_t fault_seed = 0;
};

/// The job line the service reads for @p cell (flat JSON, no newline).
std::string job_line(const Cell& cell);

/// Stream of pairwise-distinct cells, drawn in blocks of kBlock whose
/// composition is fixed: 4 cells on hier256 and the rest spread over the
/// three paper machines; 16 with an active fault plan, 4 of each family;
/// each of the 17 simulated algorithms 4 times; and thread counts (4-64)
/// and iteration counts (10-40) stratified, 4 draws from each 1/17 of
/// their range.  Which cell gets what is shuffled per block, and
/// placement and fault knobs are uniform draws.  A draw that repeats an
/// earlier cell is redrawn in its strata a few times, then from the whole
/// range.  The fixed composition
/// keeps the mix, and so the cost of a run, nearly the same from seed to
/// seed.
class CellGenerator {
 public:
  static constexpr int kBlock = 68;

  explicit CellGenerator(std::uint64_t seed);

  /// Next cell, distinct from every cell this generator returned before.
  Cell next();

 private:
  void refill();

  struct Slot {
    int kind;        // machine and fault family, see cells.cpp
    int algo;        // index into sim_algos(), modulo its size
    int threads;     // stratum of the thread count
    int iterations;  // stratum of the iteration count
  };

  Rng rng_;
  std::vector<Slot> block_;  // the current block
  std::size_t pos_ = 0;
  std::unordered_set<std::uint64_t> seen_;  // hashes of lines handed out
};

/// The simulated algorithms a cell may select (every factory algorithm
/// except the std/pthread baselines, which have no simulated model).
const std::vector<std::string>& sim_algos();

/// FNV-1a over @p n bytes; the benchmark's line digest.
std::uint64_t fnv1a(const char* data, std::size_t n,
                    std::uint64_t h = 0xcbf29ce484222325ull) noexcept;

/// Arrival times of an open-loop Poisson stream: @p count offsets in
/// nanoseconds from the start, mean gap 1e9 / @p rate_per_s.
std::vector<std::int64_t> poisson_schedule(std::uint64_t seed,
                                           double rate_per_s,
                                           std::size_t count);

/// Deterministic permutation of 0..n-1 (Fisher-Yates).
std::vector<std::uint32_t> permutation(Rng& rng, std::size_t n);

/// Purposes for e2e::stream(); one per independent draw sequence.
enum Purpose : std::uint64_t {
  kCellsPurpose = 1,
  kPoolPurpose,
  kOrderPurpose,
  kSamplePurpose,
  kSchedulePurpose,
  kMixPurpose,
  kNativePurpose,
  kProbePurpose,
};

}  // namespace e2e
