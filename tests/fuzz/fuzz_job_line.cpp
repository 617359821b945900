// libFuzzer harness for the sweep service's JSONL job-line parser and
// cache key.
//
// The parser's contract is: any line either parses into a JobSpec or
// throws std::invalid_argument with a position-precise message.  Any
// other exception, a crash or a hang is a bug.  The input is split at its
// first '\n' into two lines; when both parse, their cache keys must be
// equal exactly when the specs are equal field by field (same_spec), and
// each key must be the same on a second call.  Run:
// fuzz_job_line -max_total_time=30

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>

#include "armbar/svc/job.hpp"

namespace {

using armbar::svc::JobSpec;

/// Equality as the simulation sees a spec, field by field: warmup by its
/// effective value, doubles by bit pattern (so 0 and -0 differ).
bool same_spec(const JobSpec& a, const JobSpec& b) {
  const auto doubles = [](const JobSpec& s) {
    const armbar::fault::FaultSpec& f = s.fault;
    return std::array<double, 10>{
        f.noise.period_us,    f.noise.duration_us,  f.burst.interval_us,
        f.burst.duration_us,  f.straggler.fraction, f.straggler.slowdown,
        f.straggler.dwell_us, f.link.factor,        f.link.flap_interval_us,
        f.link.flap_duration_us};
  };
  const auto da = doubles(a), db = doubles(b);
  return a.machine == b.machine && a.algo == b.algo &&
         a.placement == b.placement && a.threads == b.threads &&
         a.iterations == b.iterations &&
         a.effective_warmup() == b.effective_warmup() &&
         a.fault.link.min_layer == b.fault.link.min_layer &&
         a.fault.seed == b.fault.seed &&
         std::memcmp(da.data(), db.data(), sizeof da) == 0;
}

/// The parsed spec, or nothing for a malformed line.
std::optional<JobSpec> parse(const std::string& line) {
  try {
    return armbar::svc::parse_job_line(line);
  } catch (const std::invalid_argument&) {
    // The documented failure mode for a malformed line.
  } catch (...) {
    __builtin_trap();
  }
  return std::nullopt;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string input(reinterpret_cast<const char*>(data), size);
  const std::size_t nl = input.find('\n');
  const std::optional<JobSpec> a = parse(input.substr(0, nl));
  const std::optional<JobSpec> b =
      nl == std::string::npos ? std::nullopt : parse(input.substr(nl + 1));
  if (!a) return 0;
  const std::string key_a = armbar::svc::cache_key(*a);
  if (armbar::svc::cache_key(*a) != key_a) __builtin_trap();
  if (b && (armbar::svc::cache_key(*b) == key_a) != same_spec(*a, *b))
    __builtin_trap();
  return 0;
}
