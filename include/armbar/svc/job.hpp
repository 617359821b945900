#pragma once
// Sweep-service job vocabulary: one JSONL line per simulation cell.
//
// A job line is a flat JSON object selecting one (machine, algorithm,
// threads, config) simulation — the same cell a sweep_cli table row or a
// SweepDriver job describes, but self-contained and streamable.  The
// exact field set, defaults, and the cache-key definition are documented
// in docs/SERVICE.md; parsing is strict (unknown fields and malformed
// JSON are errors, not warnings) so a typo'd field name cannot silently
// fall back to a default and poison a result stream.

#include <string>

#include "armbar/fault/plan.hpp"

namespace armbar::svc {

/// One parsed job line.  Defaults mirror sweep_cli's one-shot flags.
struct JobSpec {
  std::string machine = "kunpeng920";
  std::string algo = "opt";
  int threads = 64;
  int iterations = 20;
  /// Episodes discarded from the mean; -1 = min(5, iterations - 1), the
  /// sweep_cli default.
  int warmup = -1;
  std::string placement = "compact";  ///< compact | scatter | random
  /// Fault-injection fields (all optional; defaults = no faults).
  fault::FaultSpec fault;

  /// The effective warmup after resolving the -1 default.
  int effective_warmup() const noexcept {
    return warmup >= 0 ? warmup
                       : (iterations > 5 ? 5 : iterations - 1);
  }
};

/// Parse one JSONL job line (a flat JSON object; string / number /
/// boolean values only).  Throws std::invalid_argument with a
/// field-precise message on malformed JSON, unknown fields, or
/// out-of-domain values.  Recognized fields:
///   machine, algo, threads, iterations, warmup, placement,
///   noise_period_us, noise_duration_us, burst_interval_us,
///   burst_duration_us, straggler_fraction, straggler_slowdown,
///   straggler_dwell_us, link_min_layer, link_factor,
///   link_flap_interval_us, link_flap_duration_us, fault_seed
JobSpec parse_job_line(const std::string& line);

/// Canonical result-cache key of a job: "v<kCacheSchemaVersion>|", then
/// the raw bytes of every field that determines the simulation's output,
/// in a fixed order: each name as a uint32 length and its bytes, the ints,
/// each double's bit pattern and the fault seed, in host byte order (keys
/// never leave the process).  Two specs map to the same key iff they are
/// equal field by field, doubles by bit pattern and warmup by its
/// effective value, which is when the simulator is guaranteed to produce
/// identical results for them (see docs/SERVICE.md §4 for the layout and
/// the invalidation rules tied to kCacheSchemaVersion).
std::string cache_key(const JobSpec& spec);

/// Bumped whenever the simulator's cost model or the result-line schema
/// changes meaning; part of every cache key so a stale external cache
/// dump can never alias a current one.
/// v2: correlated fault fields (burst_*, straggler_dwell_us,
/// link_flap_*) joined the key.
inline constexpr int kCacheSchemaVersion = 2;

}  // namespace armbar::svc
