#pragma once
// Structured simulation-failure reporting.
//
// A barrier that can never complete used to surface as either a generic
// std::runtime_error ("simulated deadlock") or — for livelocks that keep
// generating events — as an opaque event-budget error twenty seconds
// later.  sim::DeadlockError carries what the harness actually needs to
// act on a hung episode: which budget tripped (true deadlock, event
// budget, simulated-time budget), how far simulated time got, and a
// per-core snapshot (stuck or finished, innermost open phase/round and
// the last traced operation) taken from the run's tracer when one was
// attached.  It derives from std::runtime_error, so existing
// catch(const std::runtime_error&) handlers keep working.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "armbar/obs/phase.hpp"
#include "armbar/util/vtime.hpp"

namespace armbar::sim {

/// Snapshot of one core at the instant a simulation was aborted.
struct CoreDiagnostic {
  int core = -1;
  bool finished = false;  ///< the core's thread ran to completion
  /// Innermost phase span still open on the core (kNone when the run had
  /// no tracer or the core was between spans).
  obs::Phase phase = obs::Phase::kNone;
  int round = -1;  ///< round / tree level of that span, or -1
  /// Last traced memory operation by this core: the cacheline it touched
  /// and its finish instant (-1 / 0 without a tracer).
  std::int32_t last_line = -1;
  util::Picos last_op_ps = 0;
};

/// Thrown when a simulation cannot make progress: the event queue drained
/// with suspended threads (kDeadlock), or a watchdog budget was exhausted
/// (kEventBudget / kTimeBudget — livelocks and runaway episodes;
/// kWallDeadline — the run blew its real-time deadline.  Unlike the other
/// kinds, kWallDeadline depends on host load, so it is transient).
class DeadlockError : public std::runtime_error {
 public:
  enum class Kind : std::uint8_t {
    kDeadlock,
    kEventBudget,
    kTimeBudget,
    kWallDeadline,
  };

  DeadlockError(Kind kind, const std::string& what, util::Picos sim_time_ps,
                std::uint64_t events, std::vector<CoreDiagnostic> cores = {})
      : std::runtime_error(what),
        kind_(kind),
        sim_time_ps_(sim_time_ps),
        events_(events),
        cores_(std::move(cores)) {}

  Kind kind() const noexcept { return kind_; }
  util::Picos sim_time_ps() const noexcept { return sim_time_ps_; }
  std::uint64_t events() const noexcept { return events_; }
  const std::vector<CoreDiagnostic>& cores() const noexcept { return cores_; }

  /// Stable name ("deadlock", "event-budget", "time-budget", "deadline").
  static const char* kind_name(Kind k) noexcept {
    switch (k) {
      case Kind::kDeadlock: return "deadlock";
      case Kind::kEventBudget: return "event-budget";
      case Kind::kTimeBudget: return "time-budget";
      case Kind::kWallDeadline: return "deadline";
    }
    return "?";
  }

  /// True for kinds that depend on the host rather than the simulation
  /// inputs (currently only kWallDeadline): the same job may well succeed
  /// on another run, so the sweep service never caches the verdict; the
  /// other kinds are deterministic verdicts.
  static bool transient(Kind k) noexcept { return k == Kind::kWallDeadline; }

 private:
  Kind kind_;
  util::Picos sim_time_ps_;
  std::uint64_t events_;
  std::vector<CoreDiagnostic> cores_;
};

/// Multi-line report: the error message plus one line per stuck core
/// ("core 3: stuck in arrival round 2, last op on line 17 at 1234 ns").
std::string describe(const DeadlockError& e);

}  // namespace armbar::sim
