// Sweep-service tests: SPSC ring, JSONL job parsing, cache-key
// semantics, the result cache, heatmap folding, and the service's core
// contract — daemon output byte-identical to the one-shot path for any
// worker count and any cache state (docs/SERVICE.md §4) — plus prompt
// emission: a record reaches its reader without waiting for more input.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "armbar/obs/heatmap.hpp"
#include "armbar/sim/trace.hpp"
#include "armbar/svc/cache.hpp"
#include "armbar/svc/job.hpp"
#include "armbar/svc/service.hpp"
#include "armbar/svc/spsc_ring.hpp"

namespace {

using namespace armbar;

// -- SpscRing ---------------------------------------------------------------

TEST(SpscRing, FifoSingleThread) {
  svc::SpscRing<int> ring(4);
  EXPECT_TRUE(ring.empty());
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(int(i)));
  EXPECT_FALSE(ring.try_push(99));  // full
  int v = -1;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.try_pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(ring.try_pop(v));  // empty
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  svc::SpscRing<int> ring(5);  // rounds to 8
  int pushed = 0;
  while (ring.try_push(int(pushed))) ++pushed;
  EXPECT_EQ(pushed, 8);
}

TEST(SpscRing, MovesUniquePtrs) {
  svc::SpscRing<std::unique_ptr<int>> ring(2);
  auto p = std::make_unique<int>(7);
  EXPECT_TRUE(ring.try_push(std::move(p)));
  std::unique_ptr<int> q;
  ASSERT_TRUE(ring.try_pop(q));
  ASSERT_TRUE(q);
  EXPECT_EQ(*q, 7);
}

TEST(SpscRing, FailedPushKeepsValue) {
  svc::SpscRing<std::unique_ptr<int>> ring(2);
  ASSERT_TRUE(ring.try_push(std::make_unique<int>(1)));
  ASSERT_TRUE(ring.try_push(std::make_unique<int>(2)));
  auto p = std::make_unique<int>(3);
  EXPECT_FALSE(ring.try_push(std::move(p)));
  ASSERT_TRUE(p);  // a rejected push must not consume the value
  EXPECT_EQ(*p, 3);
}

TEST(SpscRing, TwoThreadStream) {
  constexpr int kItems = 100000;
  svc::SpscRing<int> ring(64);
  std::atomic<bool> fail{false};
  std::thread consumer([&] {
    int expected = 0;
    int v = -1;
    while (expected < kItems) {
      if (ring.try_pop(v)) {
        if (v != expected) {
          fail.store(true);
          return;
        }
        ++expected;
      }
    }
  });
  for (int i = 0; i < kItems; ++i)
    while (!ring.try_push(int(i))) std::this_thread::yield();
  consumer.join();
  EXPECT_FALSE(fail.load()) << "ring reordered or corrupted the stream";
  EXPECT_TRUE(ring.empty());
}

// -- job parsing ------------------------------------------------------------

TEST(JobParse, DefaultsAndFields) {
  const auto spec = svc::parse_job_line(
      R"({"machine": "thunderx2", "algo": "mcs", "threads": 32,)"
      R"( "iterations": 10, "placement": "scatter"})");
  EXPECT_EQ(spec.machine, "thunderx2");
  EXPECT_EQ(spec.algo, "mcs");
  EXPECT_EQ(spec.threads, 32);
  EXPECT_EQ(spec.iterations, 10);
  EXPECT_EQ(spec.placement, "scatter");
  EXPECT_EQ(spec.effective_warmup(), 5);  // derived: min(5, iterations-1)

  const auto defaults = svc::parse_job_line("{}");
  EXPECT_EQ(defaults.machine, "kunpeng920");
  EXPECT_EQ(defaults.algo, "opt");
  EXPECT_EQ(defaults.threads, 64);
  EXPECT_FALSE(defaults.fault.any());
}

TEST(JobParse, WarmupDerivation) {
  EXPECT_EQ(svc::parse_job_line(R"({"iterations": 3})").effective_warmup(), 2);
  EXPECT_EQ(svc::parse_job_line(R"({"iterations": 1})").effective_warmup(), 0);
  EXPECT_EQ(
      svc::parse_job_line(R"({"iterations": 20, "warmup": 7})")
          .effective_warmup(),
      7);
}

TEST(JobParse, FaultFields) {
  const auto spec = svc::parse_job_line(
      R"({"noise_period_us": 50.5, "noise_duration_us": 2.5,)"
      R"( "straggler_fraction": 0.1, "straggler_slowdown": 4,)"
      R"( "link_min_layer": 2, "link_factor": 1.5, "fault_seed": 7})");
  EXPECT_TRUE(spec.fault.any());
  EXPECT_DOUBLE_EQ(spec.fault.noise.period_us, 50.5);
  EXPECT_DOUBLE_EQ(spec.fault.straggler.fraction, 0.1);
  EXPECT_EQ(spec.fault.link.min_layer, 2);
  EXPECT_EQ(spec.fault.seed, 7u);
}

TEST(JobParse, StringEscapes) {
  const auto spec =
      svc::parse_job_line(R"({"machine": "a\"b\\cA", "algo": "opt"})");
  EXPECT_EQ(spec.machine, "a\"b\\cA");
}

TEST(JobParse, RejectsMalformedLines) {
  EXPECT_THROW(svc::parse_job_line(""), std::invalid_argument);
  EXPECT_THROW(svc::parse_job_line("not json"), std::invalid_argument);
  EXPECT_THROW(svc::parse_job_line(R"({"threads": 4} trailing)"),
               std::invalid_argument);
  EXPECT_THROW(svc::parse_job_line(R"({"unknown_field": 1})"),
               std::invalid_argument);
  EXPECT_THROW(svc::parse_job_line(R"({"threads": "four"})"),
               std::invalid_argument);
  EXPECT_THROW(svc::parse_job_line(R"({"machine": 3})"),
               std::invalid_argument);
  EXPECT_THROW(svc::parse_job_line(R"({"threads": 1.5})"),
               std::invalid_argument);
  EXPECT_THROW(svc::parse_job_line(R"({"threads": 0})"),
               std::invalid_argument);
  EXPECT_THROW(svc::parse_job_line(R"({"threads": true})"),
               std::invalid_argument);
  EXPECT_THROW(svc::parse_job_line(R"({"machine": "unterminated)"),
               std::invalid_argument);
  EXPECT_THROW(svc::parse_job_line(R"({"nested": {"x": 1}})"),
               std::invalid_argument);
}

TEST(JobParse, NumberTokensMatchStod) {
  // Each token's value or message, pinned from the substr + std::stod
  // parser: the std::from_chars fast path must accept the same set,
  // read the same doubles, and word every rejection the same way.
  struct Case {
    const char* token;
    double value;       // when error is null
    const char* error;  // the whole message, or null
  };
  const Case cases[] = {
      {"1.", 1.0, nullptr},
      {".5", 0.5, nullptr},
      {"-0", -0.0, nullptr},
      {"00", 0.0, nullptr},
      {"0e999", 0.0, nullptr},
      {"1e400", 0,
       "job line: unparseable number '1e400' for field 'noise_period_us' "
       "at offset 25"},
      {"1e-400", 0,
       "job line: unparseable number '1e-400' for field 'noise_period_us' "
       "at offset 26"},
      {"1.5e", 0,
       "job line: unparseable number '1.5e' for field 'noise_period_us' at "
       "offset 24"},
      {"1e+", 0,
       "job line: unparseable number '1e+' for field 'noise_period_us' at "
       "offset 23"},
      {".", 0,
       "job line: unparseable number '.' for field 'noise_period_us' at "
       "offset 21"},
      {"-.", 0,
       "job line: unparseable number '-.' for field 'noise_period_us' at "
       "offset 22"},
      {"e5", 0,
       "job line: unparseable number 'e5' for field 'noise_period_us' at "
       "offset 22"},
      {"-", 0,
       "job line: expected value for field 'noise_period_us' at offset 21"},
      // 17 significant digits.
      {"12345678901234567", 12345678901234568.0, nullptr},
      {"0.10000000000000001", 0.1, nullptr},
      {"1.2345678901234567e-300", 1.2345678901234567e-300, nullptr},
      {"98765432109876543e5", 9.8765432109876543e21, nullptr},
      {"1.7976931348623157e308", 1.7976931348623157e308, nullptr},
      {"1.7976931348623159e308", 0,
       "job line: unparseable number '1.7976931348623159e308' for field "
       "'noise_period_us' at offset 42"},
      // Inexact subnormals: stod reports ERANGE, so they stay rejected.
      {"2.2250738585072011e-308", 0,
       "job line: unparseable number '2.2250738585072011e-308' for field "
       "'noise_period_us' at offset 43"},
      {"4.9e-324", 0,
       "job line: unparseable number '4.9e-324' for field 'noise_period_us' "
       "at offset 28"},
      {"-1e-320", 0,
       "job line: unparseable number '-1e-320' for field 'noise_period_us' "
       "at offset 27"},
  };
  for (const Case& c : cases) {
    const std::string line =
        std::string("{\"noise_period_us\": ") + c.token + "}";
    if (c.error == nullptr) {
      const svc::JobSpec spec = svc::parse_job_line(line);
      EXPECT_EQ(spec.fault.noise.period_us, c.value) << c.token;
      EXPECT_EQ(std::signbit(spec.fault.noise.period_us),
                std::signbit(c.value))
          << c.token;
      continue;
    }
    try {
      svc::parse_job_line(line);
      ADD_FAILURE() << c.token << " parsed";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), c.error) << c.token;
    }
  }
}

// -- cache keys -------------------------------------------------------------

TEST(CacheKey, EqualSpecsEqualKeys) {
  const auto a = svc::parse_job_line(
      R"({"machine": "kunpeng920", "algo": "opt", "threads": 16})");
  const auto b = svc::parse_job_line(
      R"({"threads": 16, "algo": "opt", "machine": "kunpeng920"})");
  EXPECT_EQ(svc::cache_key(a), svc::cache_key(b))
      << "field order must not matter";
}

TEST(CacheKey, EverySimulationInputMisses) {
  const svc::JobSpec base;
  // Each mutation flips exactly one simulation input; every one must
  // produce a distinct key (a collision would serve wrong results).
  std::vector<svc::JobSpec> variants(14, base);
  variants[0].machine = "thunderx2";
  variants[1].algo = "mcs";
  variants[2].threads = 32;
  variants[3].iterations = 21;
  variants[4].warmup = 2;
  variants[5].placement = "scatter";
  variants[6].fault.noise.period_us = 100.0;
  variants[7].fault.straggler.fraction = 0.25;
  variants[8].fault.seed = 43;
  variants[9].fault.burst.interval_us = 200.0;
  variants[10].fault.burst.duration_us = 6.0;
  variants[11].fault.straggler.dwell_us = 80.0;
  variants[12].fault.link.flap_interval_us = 300.0;
  variants[13].fault.link.flap_duration_us = 40.0;
  const std::string base_key = svc::cache_key(base);
  for (std::size_t i = 0; i < variants.size(); ++i)
    EXPECT_NE(svc::cache_key(variants[i]), base_key) << "variant " << i;
}

TEST(JobParse, CorrelatedFaultFields) {
  const auto spec = svc::parse_job_line(
      R"({"burst_interval_us": 150, "burst_duration_us": 6,)"
      R"( "straggler_fraction": 0.1, "straggler_slowdown": 2,)"
      R"( "straggler_dwell_us": 40, "link_factor": 1.5,)"
      R"( "link_flap_interval_us": 200, "link_flap_duration_us": 30})");
  EXPECT_TRUE(spec.fault.any());
  EXPECT_DOUBLE_EQ(spec.fault.burst.interval_us, 150.0);
  EXPECT_DOUBLE_EQ(spec.fault.burst.duration_us, 6.0);
  EXPECT_DOUBLE_EQ(spec.fault.straggler.dwell_us, 40.0);
  EXPECT_DOUBLE_EQ(spec.fault.link.flap_interval_us, 200.0);
  EXPECT_DOUBLE_EQ(spec.fault.link.flap_duration_us, 30.0);
}

TEST(CacheKey, ExplicitWarmupEqualsDerivedWarmup) {
  // warmup 5 explicit vs derived-from-iterations-20 are the same
  // simulation, so they must share a cache entry.
  const auto derived = svc::parse_job_line(R"({"iterations": 20})");
  const auto expl = svc::parse_job_line(R"({"iterations": 20, "warmup": 5})");
  EXPECT_EQ(svc::cache_key(derived), svc::cache_key(expl));
}

TEST(CacheKey, CarriesSchemaVersion) {
  EXPECT_EQ(svc::cache_key(svc::JobSpec{}).rfind(
                "v" + std::to_string(svc::kCacheSchemaVersion) + "|", 0),
            0u);
}

/// Equality as the simulation sees a spec, field by field: warmup by its
/// effective value, doubles by bit pattern (so 0 and -0 differ).
bool same_spec(const svc::JobSpec& a, const svc::JobSpec& b) {
  const auto doubles = [](const svc::JobSpec& s) {
    const fault::FaultSpec& f = s.fault;
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

TEST(CacheKey, EqualExactlyWhenSpecsAreEqual) {
  // Small domains so equal specs come up often; names mix in separator
  // characters, an embedded NUL, and bytes that read as the key's uint32
  // length prefix followed by a name; doubles include neighbours one ulp
  // apart.
  const std::vector<std::string> names = {
      "",  "a",   "|",   "a|", "1:a", "=a|", std::string("a\0b", 3),
      std::string("\x01\0\0\0a", 5)};
  const std::vector<double> reals = {
      0.0, -0.0, 1.0, std::nextafter(1.0, 2.0), 0.1,
      std::nextafter(0.1, 0.0), 1e300, 5e-324};
  std::mt19937_64 rng(20211);
  const auto pick = [&](const auto& pool) {
    return pool[rng() % pool.size()];
  };
  // Each field redrawn with probability 1/8, so a copy stays equal often.
  const auto redraw = [&](svc::JobSpec s) {
    const auto maybe = [&](auto& field, auto value) {
      if (rng() % 8 == 0) field = value;
    };
    fault::FaultSpec& f = s.fault;
    maybe(s.machine, pick(names));
    maybe(s.algo, pick(names));
    maybe(s.placement, pick(names));
    maybe(s.threads, static_cast<int>(rng() % 3));
    maybe(s.iterations, pick(std::vector<int>{5, 6, 20}));
    maybe(s.warmup, pick(std::vector<int>{-1, 0, 4, 5}));
    maybe(f.link.min_layer, static_cast<int>(rng() % 2));
    maybe(f.seed, static_cast<std::uint64_t>(rng() % 2));
    for (double* d : {&f.noise.period_us, &f.noise.duration_us,
                      &f.burst.interval_us, &f.burst.duration_us,
                      &f.straggler.fraction, &f.straggler.slowdown,
                      &f.straggler.dwell_us, &f.link.factor,
                      &f.link.flap_interval_us, &f.link.flap_duration_us})
      maybe(*d, pick(reals));
    return s;
  };
  int equal = 0, distinct = 0;
  for (int i = 0; i < 20000; ++i) {
    const svc::JobSpec a = redraw(redraw(svc::JobSpec{}));
    const svc::JobSpec b = redraw(a);
    const bool same = same_spec(a, b);
    ASSERT_EQ(svc::cache_key(a) == svc::cache_key(b), same)
        << svc::cache_key(a) << "\n" << svc::cache_key(b);
    ++(same ? equal : distinct);
  }
  EXPECT_GT(equal, 1000);
  EXPECT_GT(distinct, 1000);
}

TEST(CacheKey, NamesCannotBorrowSeparators) {
  svc::JobSpec a, b;
  a.machine = "x|a=y";
  a.algo = "z";
  b.machine = "x";
  b.algo = "y|a=z";
  EXPECT_NE(svc::cache_key(a), svc::cache_key(b));
  // Nor the bytes of the key's own length prefixes: four NULs read as a
  // zero length, and "\x01\0\0\0a" as the encoding of "a".
  const std::string zeros(4, '\0');
  const std::string looks_like_a("\x01\0\0\0a", 5);
  for (const auto& [m1, a1, m2, a2] :
       std::vector<std::array<std::string, 4>>{
           {zeros, "", "", zeros},
           {looks_like_a, "", "", looks_like_a},
           {"a", looks_like_a, looks_like_a, "a"}}) {
    a.machine = m1;
    a.algo = a1;
    b.machine = m2;
    b.algo = a2;
    EXPECT_NE(svc::cache_key(a), svc::cache_key(b));
  }
}

// -- ResultCache ------------------------------------------------------------

TEST(ResultCache, HitMissCountersAndFirstInsertWins) {
  svc::ResultCache cache(4);
  EXPECT_EQ(cache.find("k"), nullptr);
  EXPECT_EQ(cache.misses(), 1u);

  auto first = std::make_shared<svc::CachedResult>();
  first->tail = "first";
  cache.insert("k", first);
  auto second = std::make_shared<svc::CachedResult>();
  second->tail = "second";
  cache.insert("k", second);  // duplicate: must not replace

  const auto got = cache.find("k");
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->tail, "first");
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 1u);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.find("k"), nullptr);
}

// -- daemon vs one-shot byte identity ---------------------------------------

std::string oneshot_output(const std::string& jobs, int workers) {
  std::istringstream in(jobs);
  std::ostringstream out;
  svc::SweepService::run_oneshot(in, out, workers);
  return out.str();
}

std::string daemon_output(const std::string& jobs, svc::ServiceOptions opts) {
  std::istringstream in(jobs);
  std::ostringstream out;
  svc::SweepService service(opts);
  service.serve(in, out);
  return out.str();
}

/// A workload exercising every line class: distinct cells, repeated
/// cells, comments/blanks, a parse error, an unknown machine, an unknown
/// algorithm, and a bad placement.
std::string mixed_workload() {
  std::string jobs;
  jobs += "# comment line\n";
  jobs += "\n";
  for (const char* algo : {"opt", "sense", "dis", "mcs"})
    for (int threads : {8, 16})
      jobs += std::string("{\"machine\": \"kunpeng920\", \"algo\": \"") +
              algo + "\", \"threads\": " + std::to_string(threads) +
              ", \"iterations\": 5}\n";
  jobs += "{\"algo\": \"sense\", \"threads\": 8, \"iterations\": 5}\n";  // dup
  jobs += "{\"machine\": \"kunpeng920\", \"algo\": \"sense\", \"threads\": 8, "
          "\"iterations\": 5}\n";  // dup again, different spelling
  jobs += "garbage that is not JSON\n";
  jobs += "{\"machine\": \"atari2600\"}\n";
  jobs += "{\"algo\": \"definitely-not-a-barrier\", \"iterations\": 3}\n";
  jobs += "{\"placement\": \"diagonal\", \"iterations\": 3}\n";
  jobs += "{\"machine\": \"thunderx2\", \"algo\": \"opt\", \"threads\": 16, "
          "\"iterations\": 5, \"straggler_fraction\": 0.1, "
          "\"straggler_slowdown\": 3.0}\n";
  return jobs;
}

TEST(ServiceIdentity, DaemonMatchesOneshotAtEveryWorkerCount) {
  const std::string jobs = mixed_workload();
  const std::string reference = oneshot_output(jobs, /*workers=*/1);

  // The reference stream itself: one "{"job": N, ..." line per job (the
  // summary is pretty-printed and never starts with that token).
  std::size_t job_lines = 0, pos = 0;
  while ((pos = reference.find("{\"job\": ", pos)) != std::string::npos) {
    ++job_lines;
    pos += 8;
  }
  EXPECT_EQ(job_lines, 15u);
  EXPECT_NE(reference.find("\"runs\": 11"), std::string::npos)
      << "summary must aggregate the successful jobs";
  EXPECT_NE(reference.find("\"kind\": \"parse-error\""), std::string::npos);
  EXPECT_NE(reference.find("\"kind\": \"invalid-argument\""),
            std::string::npos);

  EXPECT_EQ(oneshot_output(jobs, 4), reference)
      << "one-shot output depends on worker count";
  for (const int workers : {1, 4, 0}) {  // 0 = hardware concurrency
    svc::ServiceOptions opts;
    opts.workers = workers;
    EXPECT_EQ(daemon_output(jobs, opts), reference)
        << "daemon diverged at workers=" << workers;
    opts.use_cache = false;
    EXPECT_EQ(daemon_output(jobs, opts), reference)
        << "uncached daemon diverged at workers=" << workers;
  }
}

TEST(ServiceIdentity, TinyRingStillOrdersCorrectly) {
  // A 2-slot ring forces constant backpressure through the reorder
  // window; ordering must survive.
  svc::ServiceOptions opts;
  opts.workers = 4;
  opts.ring_capacity = 2;
  const std::string jobs = mixed_workload();
  EXPECT_EQ(daemon_output(jobs, opts), oneshot_output(jobs, 1));
}

TEST(ServiceIdentity, IntakeRunsMissesWhenRingsAreFull) {
  // 60 distinct cells into one worker's 2-slot ring: intake parses far
  // faster than the worker simulates, so it runs the overflow itself.
  std::string jobs;
  for (const char* algo : {"dis", "sense", "mcs", "opt"})
    for (int threads = 2; threads <= 6; ++threads)
      for (int iterations = 2; iterations <= 4; ++iterations)
        jobs += std::string("{\"machine\": \"kunpeng920\", \"algo\": \"") +
                algo + "\", \"threads\": " + std::to_string(threads) +
                ", \"iterations\": " + std::to_string(iterations) + "}\n";
  const std::string reference = oneshot_output(jobs, 1);
  for (const bool use_cache : {true, false}) {
    svc::ServiceOptions opts;
    opts.workers = 1;
    opts.ring_capacity = 2;
    opts.use_cache = use_cache;
    std::istringstream in(jobs);
    std::ostringstream out;
    svc::SweepService service(opts);
    const svc::ServiceStats stats = service.serve(in, out);
    EXPECT_EQ(out.str(), reference) << "use_cache=" << use_cache;
    EXPECT_EQ(stats.jobs, 60u);
    EXPECT_GT(stats.intake_misses, 0u) << "use_cache=" << use_cache;
    EXPECT_LT(stats.intake_misses, stats.jobs);
  }

  // 50 jobs never fill a default ring: every miss goes to a worker.
  std::string grid;
  for (int i = 0; i < 50; ++i)
    grid += "{\"algo\": \"dis\", \"threads\": " + std::to_string(2 + i % 25) +
            ", \"iterations\": 3}\n";
  svc::ServiceOptions opts;
  opts.workers = 1;
  std::istringstream in(grid);
  std::ostringstream out;
  svc::SweepService service(opts);
  const svc::ServiceStats stats = service.serve(in, out);
  EXPECT_EQ(out.str(), oneshot_output(grid, 1));
  EXPECT_GT(stats.cache_misses, 0u);
  EXPECT_EQ(stats.intake_misses, 0u);
}

TEST(ServiceIdentity, WarmCacheServesIdenticalBytes) {
  const std::string jobs = mixed_workload();
  svc::ServiceOptions opts;
  opts.workers = 2;
  svc::SweepService service(opts);

  std::istringstream in1(jobs);
  std::ostringstream out1;
  const auto cold = service.serve(in1, out1);
  std::istringstream in2(jobs);
  std::ostringstream out2;
  const auto warm = service.serve(in2, out2);

  EXPECT_EQ(out1.str(), out2.str()) << "cache changed the output bytes";
  EXPECT_EQ(out1.str(), oneshot_output(jobs, 1));
  EXPECT_GT(cold.cache_misses, 0u);
  EXPECT_EQ(warm.cache_misses, 0u) << "second pass must be all hits";
  // Parse errors are never cached; everything else (including
  // deterministic error cells) hits.
  EXPECT_EQ(warm.cache_hits, warm.jobs - 1);
  EXPECT_EQ(cold.jobs, warm.jobs);
}

TEST(ServiceIdentity, LongStreamOfHitsMissesAndErrorsMatchesOneshot) {
  // 2,000 lines: a small pool of cells repeated many times (hits once
  // computed), a new cell every so often (misses), parse errors and
  // oversized lines.  The summary rows come from the cached row text, so
  // this pins them against one-shot's re-render, summary included.
  std::mt19937 rng(11);
  const char* algos[] = {"dis", "sense", "cmb", "mcs"};
  const std::string big(svc::ServiceOptions::kDefaultMaxLineBytes + 10, 'x');
  std::string jobs;
  int fresh = 0;
  for (int i = 0; i < 2000; ++i) {
    const unsigned pick = rng() % 100;
    if (pick < 3) {
      jobs += "{\"threads\": " + std::to_string(pick) + ".5}\n";
    } else if (pick < 4) {
      jobs += "{\"machine\": \"" + big + "\"}\n";
    } else {
      // Most lines reuse one of 12 cells; a few name a cell not seen yet.
      const int cell = pick < 10 ? 12 + fresh++ : static_cast<int>(rng() % 12);
      jobs += std::string("{\"machine\": \"") +
              (cell % 2 == 0 ? "kunpeng920" : "thunderx2") +
              "\", \"algo\": \"" + algos[cell % 4] +
              "\", \"threads\": " + std::to_string(2 + cell % 5) +
              ", \"iterations\": " + std::to_string(2 + cell) + "}\n";
    }
  }
  const std::string reference = oneshot_output(jobs, 2);
  EXPECT_NE(reference.find("\"kind\": \"parse-error\""), std::string::npos);
  EXPECT_NE(reference.find("exceeds max_line_bytes"), std::string::npos);
  for (const int workers : {1, 2, 4}) {
    svc::ServiceOptions opts;
    opts.workers = workers;
    EXPECT_EQ(daemon_output(jobs, opts), reference)
        << "daemon diverged at workers=" << workers;
  }
  svc::ServiceOptions uncached;
  uncached.workers = 2;
  uncached.use_cache = false;
  EXPECT_EQ(daemon_output(jobs, uncached), reference)
      << "uncached daemon diverged";
}

TEST(ServiceIdentity, EmptyStream) {
  for (const int workers : {1, 3}) {
    svc::ServiceOptions opts;
    opts.workers = workers;
    const std::string daemon = daemon_output("", opts);
    EXPECT_EQ(daemon, oneshot_output("", 1));
    EXPECT_NE(daemon.find("\"runs\": 0"), std::string::npos);  // summary only
  }
}

// -- intake hardening (bounded lines, EOF mid-line) -------------------------

TEST(ServiceIntake, EofMidLineStillYieldsOneRecord) {
  // No trailing newline: the partial final line must still produce
  // exactly one result record on both paths, and they must agree.
  const std::string jobs =
      "{\"machine\": \"kunpeng920\", \"algo\": \"dis\", \"threads\": 8, "
      "\"iterations\": 4}\n"
      "{\"machine\": \"kunpeng920\", \"algo\": \"sense\", \"threads\": 8, "
      "\"iterations\": 4}";  // <-- EOF here
  const std::string reference = oneshot_output(jobs, 1);
  std::size_t job_lines = 0, pos = 0;
  while ((pos = reference.find("{\"job\": ", pos)) != std::string::npos) {
    ++job_lines;
    pos += 8;
  }
  EXPECT_EQ(job_lines, 2u);
  svc::ServiceOptions opts;
  opts.workers = 2;
  EXPECT_EQ(daemon_output(jobs, opts), reference);
}

TEST(ServiceIntake, OversizedLineBecomesParseErrorNotAHang) {
  // A line past max_line_bytes must surface as a bounded parse-error
  // record (the tail is discarded, never buffered) and the stream must
  // keep going: the next job still runs.
  svc::ServiceOptions opts;
  opts.workers = 2;
  opts.max_line_bytes = 128;  // the legitimate job line below fits
  const std::string big(1024, 'x');
  const std::string jobs =
      "{\"pad\": \"" + big + "\"}\n" +
      "{\"machine\": \"kunpeng920\", \"algo\": \"dis\", \"threads\": 8, "
      "\"iterations\": 4}\n";
  svc::SweepService service(opts);
  std::istringstream in(jobs);
  std::ostringstream out;
  const auto stats = service.serve(in, out);
  EXPECT_EQ(stats.jobs, 2u);
  EXPECT_EQ(stats.failed, 1u);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"kind\": \"parse-error\""), std::string::npos);
  EXPECT_NE(text.find("max_line_bytes"), std::string::npos);
  EXPECT_NE(text.find("\"barrier\": \"DIS\""), std::string::npos)
      << "the job after the oversized line must still run";
}

TEST(ServiceIntake, OversizedCommentIsSkippedSilently) {
  svc::ServiceOptions opts;
  opts.workers = 1;
  opts.max_line_bytes = 128;
  const std::string jobs =
      "# " + std::string(512, 'c') + "\n" +
      "{\"machine\": \"kunpeng920\", \"algo\": \"dis\", \"threads\": 4, "
      "\"iterations\": 3}\n";
  svc::SweepService service(opts);
  std::istringstream in(jobs);
  std::ostringstream out;
  const auto stats = service.serve(in, out);
  EXPECT_EQ(stats.jobs, 1u) << "an oversized comment is not a job";
  EXPECT_EQ(stats.failed, 0u);
}

TEST(ServiceIntake, OneshotBoundsLinesToo) {
  // run_oneshot uses the default 64 KiB bound; a 128 KiB line must become
  // a parse-error record rather than an unbounded buffer.
  const std::string jobs =
      "{\"pad\": \"" + std::string(128 * 1024, 'y') + "\"}\n";
  const std::string reference = oneshot_output(jobs, 1);
  EXPECT_NE(reference.find("\"kind\": \"parse-error\""), std::string::npos);
  EXPECT_NE(reference.find("max_line_bytes"), std::string::npos);
  // And the daemon agrees byte-for-byte at the default bound.
  svc::ServiceOptions opts;
  opts.workers = 2;
  EXPECT_EQ(daemon_output(jobs, opts), reference);
}

/// One letter per job record of @p output, in order: R for a result,
/// E for an error.
std::string record_kinds(const std::string& output) {
  std::string kinds;
  std::istringstream lines(output);
  std::string line;
  while (std::getline(lines, line))
    if (line.rfind("{\"job\": ", 0) == 0)
      kinds += line.find(", \"error\": {") != std::string::npos ? 'E' : 'R';
  return kinds;
}

TEST(ServiceIntake, LineBoundariesMatchOneshot) {
  // Both paths read lines with the same bound (the default one), so each
  // stream's records must match one-shot's byte for byte and be of the
  // kinds listed: a line of exactly the bound is a job, one byte more is a
  // parse error, and the stream stays line-synced after it.
  const std::size_t max = svc::ServiceOptions::kDefaultMaxLineBytes;
  const std::string job = R"({"algo": "dis", "threads": 4, "iterations": 3})";
  const auto padded = [&](std::size_t bytes) {  // trailing blanks parse
    return job + std::string(bytes - job.size(), ' ');
  };
  const std::string nul(1, '\0');
  struct Row {
    const char* what;
    std::string stream;
    const char* kinds;
  };
  const std::vector<Row> rows = {
      {"line of exactly max_line_bytes", padded(max) + "\n" + job + "\n",
       "RR"},
      {"line of max_line_bytes + 1", padded(max + 1) + "\n" + job + "\n",
       "ER"},
      {"max_line_bytes at EOF", padded(max), "R"},
      {"max_line_bytes + 1 at EOF", padded(max + 1), "E"},
      {"lengths around powers of two",
       padded(255) + "\n" + padded(256) + "\n" + padded(257) + "\n" +
           padded(511) + "\n" + padded(512) + "\n" + padded(513) + "\n",
       "RRRRRR"},
      {"embedded NUL after the object", job + nul + "x\n" + job + "\n",
       "ER"},
      {"embedded NUL inside a value",
       R"({"machine": "kunpeng920)" + nul + R"("})" + "\n",
       "E"},
      {"CR before LF", job + "\r\n\r\n#c\r\n" + job + "\r\n", "RR"},
      {"final line with no newline", job + "\n" + job, "RR"},
      {"blank lines", "\n\n  \t\n" + job + "\n\n", "R"},
      {"oversized comment",
       "#" + std::string(max + 10, 'c') + "\n  #" + std::string(max, 'c') +
           "\n" + job + "\n",
       "R"},
      {"oversized comment at EOF", job + "\n#" + std::string(max, 'c'),
       "R"},
  };
  for (const Row& row : rows) {
    const std::string reference = oneshot_output(row.stream, 1);
    EXPECT_EQ(record_kinds(reference), row.kinds) << row.what;
    for (const int workers : {1, 2}) {
      svc::ServiceOptions opts;
      opts.workers = workers;
      EXPECT_EQ(daemon_output(row.stream, opts), reference)
          << row.what << ", workers=" << workers;
    }
  }
}

TEST(ServiceOptionsValidation, RejectsNonsense) {
  const auto bad = [](svc::ServiceOptions opts) {
    EXPECT_THROW(svc::SweepService s(opts), std::invalid_argument);
  };
  svc::ServiceOptions o2;
  o2.job_deadline_ms = -1.0;
  bad(o2);
  svc::ServiceOptions o3;
  o3.max_line_bytes = 8;
  bad(o3);
}

TEST(ServiceStatsCheck, AccountingMatchesStream) {
  const std::string jobs = mixed_workload();
  svc::ServiceOptions opts;
  opts.workers = 2;
  svc::SweepService service(opts);
  std::istringstream in(jobs);
  std::ostringstream out;
  const auto stats = service.serve(in, out);
  EXPECT_EQ(stats.jobs, 15u);
  EXPECT_EQ(stats.failed, 4u);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses + /*parse errors=*/1,
            stats.jobs);
}

TEST(ServiceIdentity, WarmServiceAnswersMixedStream) {
  const auto cell = [](const char* algo, int threads) {
    return std::string("{\"machine\": \"kunpeng920\", \"algo\": \"") + algo +
           "\", \"threads\": " + std::to_string(threads) +
           ", \"iterations\": 4}\n";
  };
  const std::string primer = cell("dis", 8) + cell("sense", 8);
  // Hits, fresh misses (one repeated), a parse error, an oversized line
  // past the one-shot bound, comments and an unknown machine.
  const std::string jobs =
      "# warm stream\n" + cell("dis", 8) + cell("mcs", 8) + cell("sense", 8) +
      "garbage\n" + cell("cmb", 4) + cell("mcs", 8) + "\n" +
      "{\"pad\": \"" + std::string(70 * 1024, 'x') + "\"}\n" +
      cell("dis", 8) + "{\"machine\": \"atari2600\"}\n";
  const std::string reference = oneshot_output(jobs, 1);
  for (const int workers : {1, 2, 4}) {
    svc::ServiceOptions opts;
    opts.workers = workers;
    svc::SweepService service(opts);
    std::istringstream prime_in(primer);
    std::ostringstream prime_out;
    service.serve(prime_in, prime_out);
    std::istringstream in(jobs);
    std::ostringstream out;
    const auto stats = service.serve(in, out);
    EXPECT_EQ(out.str(), reference) << "workers=" << workers;
    EXPECT_EQ(stats.jobs, 9u);
    EXPECT_GE(stats.cache_hits, 3u) << "primed cells must hit";
    EXPECT_EQ(stats.cache_hits + stats.cache_misses + /*parse errors=*/2,
              stats.jobs)
        << "workers=" << workers;
  }
}

// -- prompt emission ---------------------------------------------------------

/// The reader's end of a live pipe.  Counts the job records that have
/// reached the reader; buffered, they get there only through sync() (the
/// flush), unbuffered every byte arrives at once.
class ReaderSink : public std::streambuf {
 public:
  explicit ReaderSink(bool buffered) : buffered_(buffered) { reset_put_area(); }

  /// Wait until @p n records reached the reader; false past @p deadline.
  bool wait_records(std::size_t n,
                    std::chrono::steady_clock::time_point deadline) {
    std::unique_lock<std::mutex> lk(mu_);
    return cv_.wait_until(lk, deadline, [&] { return records_ >= n; });
  }

  std::string text() const {
    std::lock_guard<std::mutex> lk(mu_);
    return text_;
  }

  std::size_t syncs() const {
    std::lock_guard<std::mutex> lk(mu_);
    return syncs_;
  }

 protected:
  int sync() override {
    deliver();
    std::lock_guard<std::mutex> lk(mu_);
    ++syncs_;
    return 0;
  }

  int_type overflow(int_type ch) override {
    deliver();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      const char c = traits_type::to_char_type(ch);
      append(&c, &c + 1);
    }
    return traits_type::not_eof(ch);
  }

 private:
  void reset_put_area() {
    if (buffered_) setp(buf_, buf_ + sizeof buf_);
  }

  void deliver() {
    append(pbase(), pptr());
    reset_put_area();
  }

  void append(const char* begin, const char* end) {
    std::lock_guard<std::mutex> lk(mu_);
    for (const char* p = begin; p != end; ++p) {
      text_.push_back(*p);
      if (*p != '\n') continue;
      if (text_.compare(line_start_, 8, "{\"job\": ") == 0) ++records_;
      line_start_ = text_.size();
    }
    cv_.notify_all();
  }

  bool buffered_;
  char buf_[1 << 16];
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::string text_;
  std::size_t line_start_ = 0;
  std::size_t records_ = 0;
  std::size_t syncs_ = 0;
};

/// The writer's end of a live pipe, driven by a request/response client:
/// it sends job line k+1 only once the record for job k reached it.  Past
/// the deadline it ends the stream instead of hanging the test.
class ClientSource : public std::streambuf {
 public:
  ClientSource(std::vector<std::string> lines, ReaderSink& sink)
      : lines_(std::move(lines)),
        sink_(sink),
        deadline_(std::chrono::steady_clock::now() + std::chrono::seconds(5)) {}

  bool timed_out() const { return timed_out_; }

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    if (next_ >= lines_.size() || timed_out_) return traits_type::eof();
    if (next_ > 0 && !sink_.wait_records(next_, deadline_)) {
      timed_out_ = true;
      return traits_type::eof();
    }
    current_ = lines_[next_++] + '\n';
    setg(current_.data(), current_.data(), current_.data() + current_.size());
    return traits_type::to_int_type(*gptr());
  }

 private:
  std::vector<std::string> lines_;
  ReaderSink& sink_;
  std::chrono::steady_clock::time_point deadline_;
  std::size_t next_ = 0;
  std::string current_;
  bool timed_out_ = false;
};

std::vector<std::string> latency_jobs() {
  std::vector<std::string> lines;
  for (const char* algo : {"dis", "sense", "mcs", "cmb"})
    for (int threads : {4, 8})
      lines.push_back(std::string("{\"machine\": \"kunpeng920\", \"algo\": \"") +
                      algo + "\", \"threads\": " + std::to_string(threads) +
                      ", \"iterations\": 4}");
  lines.push_back("not a job");  // error records take their turn too
  return lines;
}

std::string joined(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& l : lines) text += l + '\n';
  return text;
}

/// Serve @p lines to a request/response client on @p service, cold then
/// warm; every record must reach the client before it sends the next line.
void expect_prompt_records(const svc::ServiceOptions& opts, bool buffered) {
  const std::vector<std::string> lines = latency_jobs();
  const std::string reference = oneshot_output(joined(lines), 1);
  svc::SweepService service(opts);
  for (const char* pass : {"cold", "warm"}) {
    ReaderSink sink(buffered);
    ClientSource source(lines, sink);
    std::istream in(&source);
    std::ostream out(&sink);
    service.serve(in, out);
    out.flush();
    EXPECT_FALSE(source.timed_out())
        << pass << " pass, workers=" << opts.workers
        << ": a record waited for the next input line";
    EXPECT_EQ(sink.text(), reference)
        << pass << " pass, workers=" << opts.workers;
    if (buffered)
      EXPECT_GE(sink.syncs(), lines.size() - 1)
          << "every record must be flushed before intake blocks";
  }
}

TEST(ServiceLatency, RecordLeavesBeforeNextLine) {
  for (const int workers : {1, 2, 4}) {
    svc::ServiceOptions opts;
    opts.workers = workers;
    expect_prompt_records(opts, /*buffered=*/false);
  }
}

TEST(ServiceLatency, FlushesWhenIntakeMayBlock) {
  for (const int workers : {1, 4}) {
    svc::ServiceOptions opts;
    opts.workers = workers;
    expect_prompt_records(opts, /*buffered=*/true);
  }
  // Input already buffered in full never blocks intake, so records are
  // not flushed one by one.
  const std::vector<std::string> lines = latency_jobs();
  std::istringstream in(joined(lines));
  ReaderSink sink(/*buffered=*/true);
  std::ostream out(&sink);
  svc::ServiceOptions opts;
  opts.workers = 2;
  svc::SweepService service(opts);
  service.serve(in, out);
  EXPECT_LT(sink.syncs(), lines.size() - 1);
}

TEST(ServiceIntake, ReadsDoNotFlushTheTiedStream) {
  // std::cin is tied to std::cout.  Reading a line must not flush the
  // tied stream (serve() flushes when records are due), and the tie must
  // be back in place afterwards.
  const std::vector<std::string> lines = latency_jobs();
  std::istringstream in(joined(lines));
  ReaderSink tied_sink(/*buffered=*/true);
  std::ostream tied(&tied_sink);
  in.tie(&tied);
  std::ostringstream out;
  svc::ServiceOptions opts;
  opts.workers = 2;
  svc::SweepService service(opts);
  service.serve(in, out);
  EXPECT_EQ(tied_sink.syncs(), 0u);
  EXPECT_EQ(in.tie(), &tied);
  EXPECT_EQ(out.str(), oneshot_output(joined(lines), 1));
}

// -- heatmap ----------------------------------------------------------------

TEST(Heatmap, FoldsEventsAndSortsHottestFirst) {
  sim::Tracer tracer(64);
  const auto ev = [](int core, int line) {
    sim::TraceEvent e;
    e.core = core;
    e.line = line;
    e.start = 0;
    e.finish = 10;
    return e;
  };
  tracer.record(ev(0, 7));
  tracer.record(ev(1, 7));
  tracer.record(ev(1, 7));
  tracer.record(ev(0, 3));
  tracer.record(ev(9, 3));   // core outside the matrix: row total only
  tracer.record(ev(2, -1));  // no line: ignored entirely

  const auto hm = obs::contention_heatmap(tracer, /*num_cores=*/4);
  ASSERT_EQ(hm.rows.size(), 2u);
  EXPECT_EQ(hm.num_cores, 4);
  EXPECT_EQ(hm.total_ops, 5u);
  EXPECT_EQ(hm.rows[0].line, 7);
  EXPECT_EQ(hm.rows[0].total, 3u);
  EXPECT_EQ(hm.rows[0].per_core, (std::vector<std::uint64_t>{1, 2, 0, 0}));
  EXPECT_EQ(hm.rows[1].line, 3);
  EXPECT_EQ(hm.rows[1].total, 2u);
  EXPECT_EQ(hm.rows[1].per_core, (std::vector<std::uint64_t>{1, 0, 0, 0}));

  const std::string csv = obs::to_csv(hm);
  EXPECT_EQ(csv.rfind("line,total,core_0,core_1,core_2,core_3\n", 0), 0u);
  EXPECT_NE(csv.find("7,3,1,2,0,0\n"), std::string::npos);
  EXPECT_NE(csv.find("3,2,1,0,0,0\n"), std::string::npos);

  const std::string ascii = obs::to_ascii(hm);
  EXPECT_NE(ascii.find("total ops 5"), std::string::npos);
}

TEST(Heatmap, MaxLinesCutsCoolestRows) {
  sim::Tracer tracer(64);
  for (int line = 0; line < 5; ++line)
    for (int rep = 0; rep <= line; ++rep) {
      sim::TraceEvent e;
      e.core = 0;
      e.line = line;
      tracer.record(e);
    }
  const auto hm = obs::contention_heatmap(tracer, 1, /*max_lines=*/2);
  ASSERT_EQ(hm.rows.size(), 2u);
  EXPECT_EQ(hm.rows[0].line, 4);  // hottest
  EXPECT_EQ(hm.rows[1].line, 3);
  EXPECT_EQ(hm.total_ops, 15u);  // total counts pre-cut traffic
}

TEST(Heatmap, AsciiFoldsColumnsOnManyCoreMachines) {
  // 1024 cores, one hot line: core 1000 hammers it, core 0 touches it
  // once.  At the default 128-column cap each glyph covers 8 cores; the
  // max-fold must keep both nonzero cells visible and say so in the
  // header.
  sim::Tracer tracer(64);
  const auto ev = [](int core) {
    sim::TraceEvent e;
    e.core = core;
    e.line = 5;
    return e;
  };
  tracer.record(ev(0));
  for (int rep = 0; rep < 9; ++rep) tracer.record(ev(1000));

  const auto hm = obs::contention_heatmap(tracer, /*num_cores=*/1024);
  const std::string ascii = obs::to_ascii(hm);
  EXPECT_NE(ascii.find("col = max of 8 cores"), std::string::npos) << ascii;
  const std::size_t bar = ascii.find('|');
  ASSERT_NE(bar, std::string::npos);
  const std::size_t end = ascii.find('|', bar + 1);
  ASSERT_NE(end, std::string::npos);
  EXPECT_EQ(end - bar - 1, 128u);  // 1024 cores folded into 128 columns
  const std::string cells = ascii.substr(bar + 1, end - bar - 1);
  EXPECT_EQ(cells[0], '.');    // core 0's single op, faintest glyph
  EXPECT_EQ(cells[125], '%');  // core 1000 -> bucket 125, hottest cell
  // Unfolded rendering is unchanged when the cap is disabled.
  const std::string wide = obs::to_ascii(hm, 16, 0);
  EXPECT_EQ(wide.find("col = max of"), std::string::npos);
}

TEST(Heatmap, TiesBreakByAscendingLine) {
  sim::Tracer tracer(64);
  for (const int line : {9, 4}) {
    sim::TraceEvent e;
    e.core = 0;
    e.line = line;
    tracer.record(e);
  }
  const auto hm = obs::contention_heatmap(tracer, 1);
  ASSERT_EQ(hm.rows.size(), 2u);
  EXPECT_EQ(hm.rows[0].line, 4);
  EXPECT_EQ(hm.rows[1].line, 9);
}

}  // namespace
