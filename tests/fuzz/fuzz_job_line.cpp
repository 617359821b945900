// libFuzzer harness for the sweep service's JSONL job-line parser.
//
// The parser's contract is: any line either parses into a JobSpec or
// throws std::invalid_argument with a position-precise message.  Any
// other exception, a crash or a hang is a bug, and so is a parsed spec
// whose cache key differs between two calls.  Run:
// fuzz_job_line -max_total_time=30

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "armbar/svc/job.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string line(reinterpret_cast<const char*>(data), size);
  try {
    const armbar::svc::JobSpec spec = armbar::svc::parse_job_line(line);
    if (armbar::svc::cache_key(spec) != armbar::svc::cache_key(spec))
      __builtin_trap();
  } catch (const std::invalid_argument&) {
    // The documented failure mode for a malformed line.
  } catch (...) {
    __builtin_trap();
  }
  return 0;
}
