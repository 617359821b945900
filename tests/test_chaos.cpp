// Chaos harness for the sweep service (docs/SERVICE.md §robustness).
// Every stream here fails on its own — no test hooks: jobs that blow
// their wall deadline, malformed and oversized input, an EOF mid-line,
// more jobs than max_inflight admits, and a drain requested mid-stream.
// The tests pin the invariants that make the robustness envelope
// trustworthy:
//
//  1. No deadlock: serve() always returns (the ctest hard timeout is the
//     enforcement backstop; every loop below terminates or fails).
//  2. Exactly-one-record accounting: every job line yields exactly one
//     result-or-error line, in job order.
//  3. Byte identity: every record that is not shed and did not time out
//     is byte-identical to the one-shot batch path's record for the same
//     job, for any worker count.
//
// Every run is seeded (std::mt19937 over the job mix); CI's chaos-smoke
// job executes this binary repeatedly under ASan.

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <random>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "armbar/svc/service.hpp"

namespace {

using namespace armbar;

/// A cell that simulates for tens of milliseconds (~166k events): long
/// enough to trip a few-millisecond deadline and to back intake up.
const std::string kSlowCell =
    "{\"machine\": \"kunpeng920\", \"algo\": \"dis\", \"threads\": 64, "
    "\"iterations\": 200}";

std::string oneshot_output(const std::string& jobs) {
  std::istringstream in(jobs);
  std::ostringstream out;
  svc::SweepService::run_oneshot(in, out, /*workers=*/0);
  return out.str();
}

std::string daemon_output(const std::string& jobs,
                          const svc::ServiceOptions& opts,
                          svc::ServiceStats* stats = nullptr) {
  std::istringstream in(jobs);
  std::ostringstream out;
  svc::SweepService service(opts);
  const svc::ServiceStats s = service.serve(in, out);
  if (stats != nullptr) *stats = s;
  return out.str();
}

std::vector<std::string> job_lines(const std::string& output) {
  std::vector<std::string> lines;
  std::istringstream is(output);
  std::string line;
  while (std::getline(is, line))
    if (line.rfind("{\"job\": ", 0) == 0) lines.push_back(line);
  return lines;
}

/// Sequence number of a result line ("{"job": N, ...").
std::uint64_t seq_of(const std::string& line) {
  return std::stoull(line.substr(8));
}

/// Everything after the job index: the part of a record that depends on
/// the job, not on its position in the stream.
std::string tail_of(const std::string& record) {
  return record.substr(record.find(','));
}

bool has_kind(const std::string& record, const char* kind) {
  return record.find(std::string("\"kind\": \"") + kind + "\"") !=
         std::string::npos;
}

/// Invariant 2: exactly one line per job 0..n-1, in order.
void expect_exactly_one_record_each(const std::string& output,
                                    std::size_t n_jobs) {
  const auto lines = job_lines(output);
  ASSERT_EQ(lines.size(), n_jobs);
  for (std::size_t i = 0; i < n_jobs; ++i)
    EXPECT_EQ(seq_of(lines[i]), i);
}

std::string small_cell(const char* algo, int threads, int iterations) {
  return std::string("{\"machine\": \"kunpeng920\", \"algo\": \"") + algo +
         "\", \"threads\": " + std::to_string(threads) +
         ", \"iterations\": " + std::to_string(iterations) + "}";
}

// The bad-input mix: each line fails (or is skipped) on its own.
const std::string kUnknownMachine =
    "{\"machine\": \"no-such-machine\", \"algo\": \"dis\", \"threads\": 4}";
const std::string kNotJson = "this is not json";
std::string oversized_job() {
  std::string line = "{\"pad\": \"";
  line.append(svc::ServiceOptions::kDefaultMaxLineBytes, 'x');
  return line + "\"}";
}
std::string oversized_comment() {
  std::string line = "# ";
  line.append(svc::ServiceOptions::kDefaultMaxLineBytes, 'c');
  return line;
}

// -- deadlines --------------------------------------------------------------

TEST(ChaosService, DeadlineAbortsRunawayJobWithStructuredRecord) {
  // 64 threads x 200 iterations is far past the engine's first wall-clock
  // check; a 1us deadline cannot be met.
  const std::string jobs =
      "{\"machine\": \"kunpeng920\", \"algo\": \"dis\", \"threads\": 64, "
      "\"iterations\": 200}\n";
  svc::ServiceOptions opts;
  opts.workers = 1;
  opts.job_deadline_ms = 0.001;

  std::istringstream in(jobs);
  std::ostringstream out;
  svc::SweepService service(opts);
  const auto stats = service.serve(in, out);

  const auto lines = job_lines(out.str());
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"kind\": \"deadline\""), std::string::npos)
      << lines[0];
  EXPECT_EQ(stats.deadline_errors, 1u);
  EXPECT_EQ(stats.failed, 1u);
}

TEST(ChaosService, DeadlineVerdictNeverEntersTheCache) {
  // A deadline depends on the host, not the cell: serving the same
  // runaway cell again must simulate it again, never replay a cached
  // verdict, or daemon bytes would diverge from the one-shot path.
  const std::string jobs = kSlowCell + "\n";
  svc::ServiceOptions opts;
  opts.workers = 1;
  opts.job_deadline_ms = 0.001;
  svc::SweepService service(opts);
  for (int pass = 0; pass < 2; ++pass) {
    std::istringstream in(jobs);
    std::ostringstream out;
    const auto stats = service.serve(in, out);
    const auto lines = job_lines(out.str());
    ASSERT_EQ(lines.size(), 1u) << "pass " << pass;
    EXPECT_TRUE(has_kind(lines[0], "deadline")) << lines[0];
    EXPECT_EQ(stats.cache_hits, 0u) << "pass " << pass;
    EXPECT_EQ(stats.deadline_errors, 1u) << "pass " << pass;
    EXPECT_EQ(service.cache().size(), 0u) << "pass " << pass;
  }
}

// -- load shedding ----------------------------------------------------------

TEST(ChaosService, OverloadShedsExplicitlyNeverSilently) {
  // Each copy simulates for tens of milliseconds while intake reads the
  // whole buffered stream in microseconds: with max_inflight 2 the
  // surplus must surface as explicit shed records.
  constexpr std::size_t kJobs = 12;
  std::string jobs;
  for (std::size_t i = 0; i < kJobs; ++i) jobs += kSlowCell + "\n";

  svc::ServiceOptions opts;
  opts.workers = 2;
  opts.use_cache = false;
  opts.max_inflight = 2;
  svc::ServiceStats stats;
  const std::string output = daemon_output(jobs, opts, &stats);

  expect_exactly_one_record_each(output, kJobs);
  EXPECT_EQ(stats.jobs, kJobs);
  EXPECT_GT(stats.shed, 0u);
  const auto records = job_lines(output);
  const auto reference = job_lines(oneshot_output(jobs));
  ASSERT_EQ(reference.size(), kJobs);
  std::uint64_t shed_lines = 0;
  for (std::size_t i = 0; i < kJobs; ++i) {
    if (has_kind(records[i], "shed"))
      ++shed_lines;
    else
      EXPECT_EQ(records[i], reference[i]) << "job " << i;
  }
  EXPECT_EQ(shed_lines, stats.shed);
  EXPECT_EQ(stats.failed, stats.shed);
}

// -- malformed and oversized input ------------------------------------------

TEST(ChaosService, BadInputMatchesOneshotBytes) {
  std::string jobs = "# bad-input mix\n\n";
  jobs += small_cell("dis", 4, 4) + "\n";
  jobs += kUnknownMachine + "\n";
  jobs += kNotJson + "\n";
  jobs += small_cell("mcs", 8, 5) + "\n";
  jobs += oversized_job() + "\n";
  jobs += oversized_comment() + "\n";
  jobs += small_cell("sense", 4, 4) + "\n";
  jobs += "{\"machine\": \"kunpeng920\", \"algo\": \"no-such-algo\"}\n";
  jobs += small_cell("dis", 4, 4) + "\n";  // a repeat: the cache answers
  jobs += small_cell("cmb", 12, 6);        // EOF mid-line
  const std::string reference = oneshot_output(jobs);
  // Nine job records (comments, blanks and the oversized comment skip),
  // including the line cut by EOF, then the summary.
  const auto records = job_lines(reference);
  ASSERT_EQ(records.size(), 9u);
  EXPECT_TRUE(has_kind(records[1], "invalid-argument")) << records[1];
  EXPECT_TRUE(has_kind(records[2], "parse-error")) << records[2];
  EXPECT_TRUE(has_kind(records[4], "parse-error")) << records[4];
  EXPECT_NE(records[4].find("max_line_bytes"), std::string::npos);
  EXPECT_EQ(records[8].find("\"error\""), std::string::npos) << records[8];

  for (const int workers : {1, 4}) {
    svc::ServiceOptions opts;
    opts.workers = workers;
    svc::ServiceStats stats;
    EXPECT_EQ(daemon_output(jobs, opts, &stats), reference)
        << "workers " << workers;
    EXPECT_EQ(stats.jobs, records.size());
  }
}

// -- the seeded sweep (what CI's chaos-smoke loops) -------------------------

TEST(ChaosService, TwentySeededRunsKeepAllInvariants) {
  // The pool every seed draws from: good cells, each bad-input kind, and
  // a cell that trips the service's deadline.  run_oneshot answers each
  // pool line once; a record's tail depends only on its line.
  const std::vector<std::string> pool = {
      small_cell("dis", 4, 4),   small_cell("sense", 8, 5),
      small_cell("mcs", 12, 6),  small_cell("cmb", 4, 5),
      small_cell("dis", 8, 6),   kUnknownMachine,
      kNotJson,                  oversized_job(),
      kSlowCell};
  const std::size_t n_good = 5;
  const std::size_t slow = pool.size() - 1;
  std::string pool_jobs;
  for (const std::string& l : pool) pool_jobs += l + "\n";
  const auto pool_records = job_lines(oneshot_output(pool_jobs));
  ASSERT_EQ(pool_records.size(), pool.size());
  std::map<std::string, std::string> tail_for;
  for (std::size_t i = 0; i < pool.size(); ++i)
    tail_for[pool[i]] = tail_of(pool_records[i]);
  const std::string comment = oversized_comment();

  std::uint64_t total_deadline_records = 0;
  for (std::uint32_t seed = 1; seed <= 20; ++seed) {
    std::mt19937 rng(seed);
    std::string jobs;
    std::vector<std::string> expected;  // each job's line, in order
    const std::size_t n = 10 + rng() % 8;
    for (std::size_t i = 0; i < n; ++i) {
      const auto dice = rng() % 16;
      if (dice == 0) jobs += comment + "\n";        // skipped, no record
      if (dice == 1) jobs += "# comment\n\n";       // skipped, no record
      const std::size_t pick = dice == 2   ? slow   // ~1 in 16 trips
                               : dice < 8  ? n_good + rng() % (slow - n_good)
                                           : rng() % n_good;
      expected.push_back(pool[pick]);
      jobs += pool[pick];
      // The last line ends at EOF without a newline half of the time.
      if (i + 1 < n || rng() % 2 == 0) jobs += "\n";
    }

    svc::ServiceOptions opts;
    opts.workers = 1 + static_cast<int>(seed % 4);
    opts.job_deadline_ms = 5.0;
    svc::ServiceStats stats;
    const std::string output = daemon_output(jobs, opts, &stats);

    expect_exactly_one_record_each(output, expected.size());
    EXPECT_EQ(stats.jobs, expected.size()) << "seed " << seed;
    const auto records = job_lines(output);
    std::uint64_t deadline_records = 0;
    for (std::size_t i = 0; i < records.size(); ++i) {
      // A timed-out record depends on host speed; every other one must
      // be the one-shot bytes.
      if (has_kind(records[i], "deadline")) {
        ++deadline_records;
        continue;
      }
      EXPECT_EQ(tail_of(records[i]), tail_for.at(expected[i]))
          << "seed " << seed << " workers " << opts.workers << " job " << i;
    }
    EXPECT_EQ(stats.deadline_errors, deadline_records) << "seed " << seed;
    total_deadline_records += deadline_records;
  }
  // The slow cell needs several times the deadline, so the sweep does
  // exercise the deadline path.
  EXPECT_GT(total_deadline_records, 0u);
}

// -- graceful drain ---------------------------------------------------------

/// Input paced one line per read.  Once @p stop_after lines have gone out,
/// it hands over to a stopper thread and holds the next line back until
/// that thread has called request_stop() (or a 5 s safety deadline
/// passes), so the stop lands mid-stream with input still unread.
class PacedSource : public std::streambuf {
 public:
  PacedSource(std::vector<std::string> lines, std::size_t stop_after)
      : lines_(std::move(lines)), stop_after_(stop_after) {}

  /// Stopper side: wait for the hand-over, stop, release the reader.
  void stop_when_due(svc::SweepService& service) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return handed_over_; });
    service.request_stop();
    stopped_ = true;
    cv_.notify_all();
  }

  std::size_t delivered() const { return next_; }

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    if (next_ >= lines_.size()) return traits_type::eof();
    if (next_ == stop_after_) {
      std::unique_lock<std::mutex> lk(mu_);
      handed_over_ = true;
      cv_.notify_all();
      cv_.wait_for(lk, std::chrono::seconds(5), [&] { return stopped_; });
    }
    current_ = lines_[next_++] + '\n';
    setg(current_.data(), current_.data(), current_.data() + current_.size());
    return traits_type::to_int_type(*gptr());
  }

 private:
  std::vector<std::string> lines_;
  std::size_t stop_after_;
  std::size_t next_ = 0;
  std::string current_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool handed_over_ = false;
  bool stopped_ = false;
};

TEST(ChaosService, RequestStopDrainsMidStream) {
  std::vector<std::string> lines;
  for (const char* algo : {"dis", "sense", "mcs", "cmb"})
    for (const int threads : {4, 8, 12})
      lines.push_back(small_cell(algo, threads, 4));
  lines.push_back(kNotJson);  // error records drain like results
  constexpr std::size_t kStopAfter = 5;
  const auto prefix = [&](std::size_t n) {
    std::string text;
    for (std::size_t i = 0; i < n; ++i) text += lines[i] + '\n';
    return text;
  };

  for (const int workers : {1, 4}) {
    svc::ServiceOptions opts;
    opts.workers = workers;
    svc::SweepService service(opts);
    PacedSource source(lines, kStopAfter);
    std::istream in(&source);
    std::ostringstream out;
    std::thread stopper([&] { source.stop_when_due(service); });
    const svc::ServiceStats stats = service.serve(in, out);
    stopper.join();

    // Stopped mid-stream: the line read when the stop landed is the last
    // one served, and unread input stays unread.
    EXPECT_GE(stats.jobs, kStopAfter) << "workers " << workers;
    EXPECT_LT(stats.jobs, lines.size()) << "workers " << workers;
    EXPECT_EQ(source.delivered(), stats.jobs);
    // Exactly the records of the served prefix, then its summary: the
    // one-shot bytes for that prefix.
    expect_exactly_one_record_each(out.str(), stats.jobs);
    EXPECT_EQ(out.str(), oneshot_output(prefix(stats.jobs)))
        << "workers " << workers;

    // The service is reusable: a fresh batch runs to completion.
    std::istringstream again(prefix(lines.size()));
    std::ostringstream out2;
    const svc::ServiceStats stats2 = service.serve(again, out2);
    EXPECT_EQ(stats2.jobs, lines.size());
    EXPECT_EQ(out2.str(), oneshot_output(prefix(lines.size())))
        << "workers " << workers;
  }
}

}  // namespace
