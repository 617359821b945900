#pragma once
// Litmus harness: run a checked barrier configuration against the barrier
// postconditions under exhaustive interleaving.
//
// Per episode ep (1-based), every thread t does
//     arrived[t].store(ep, relaxed);   // side-band, no ordering of its own
//     barrier.wait(t);
//     for every other j: assert arrived[j] >= ep;
// The relaxed side-band stores/loads carry no synchronization, so the
// *barrier's* release/acquire edges are the only thing that can exclude
// the stale value: if any edge is missing, some interleaving lets a
// post-wait load return an episode-(ep-1) value and the checker reports a
// "barrier-escape" violation with the schedule.  Lost-wakeup /
// reset-misordering bugs surface as "deadlock" (no admissible step while
// threads are still blocked).

#include <string>
#include <vector>

#include "armbar/wmc/engine.hpp"
#include "armbar/wmc/models.hpp"

namespace armbar::wmc {

struct CheckConfig {
  int threads = 0;   ///< 0 = row default
  int episodes = 0;  ///< 0 = row default
  Options engine;    ///< budget / seed / the site to weaken (mutate)
};

/// Explore the configuration under the litmus harness.
Result check_barrier(const ModelInfo& info, const CheckConfig& config = {});

struct MutationOutcome {
  std::string site;
  bool detected = false;  ///< exploration reported a violation
  std::uint64_t executions = 0;
};

/// Weaken, one at a time, every site a clean check of @p info consults.
/// A healthy configuration detects every one.
std::vector<MutationOutcome> mutation_suite(const ModelInfo& info,
                                            const CheckConfig& config = {});

}  // namespace armbar::wmc
