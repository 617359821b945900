#pragma once
// The benchmark's two stream ends, as streambufs so the service reads and
// writes them exactly as it would stdin and stdout.
//
//  * LineSource hands serve() one generated job line per underflow, on
//    demand; an optional schedule makes it block until each line is due,
//    as a reader of a live pipe would.  Per line it keeps the due, read
//    and generator-lag instants, never the line text.
//  * LineSink counts the records serve() writes and stamps each with the
//    instant its '\n' arrived.  Per record it keeps the job index, a
//    digest of the text after the index, and the error flag, never the
//    text; the summary object that ends a stream is kept whole.

#include <chrono>
#include <cstdint>
#include <functional>
#include <streambuf>
#include <string>
#include <vector>

namespace e2e {

/// Monotonic nanoseconds (steady_clock), the benchmark's one time base.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class LineSource : public std::streambuf {
 public:
  /// Writes line @p index (without '\n') into @p out; false ends the
  /// stream.
  using Generator = std::function<bool(std::size_t index, std::string& out)>;

  struct LineTimes {
    std::int64_t due_ns = 0;   ///< when the line was due (= requested, unpaced)
    std::int64_t read_ns = 0;  ///< when serve() got its first byte
    std::int64_t lag_ns = 0;   ///< read_ns - max(due, request): harness delay
  };

  /// Unpaced source: a line is due when serve() asks for it.
  explicit LineSource(Generator gen, std::size_t expected_lines = 0);
  /// Paced source: line i is due at start_ns + offsets_ns[i]; the stream
  /// ends after offsets_ns.size() lines.
  LineSource(Generator gen, std::int64_t start_ns,
             std::vector<std::int64_t> offsets_ns);

  const std::vector<LineTimes>& times() const noexcept { return times_; }
  std::size_t lines() const noexcept { return times_.size(); }

 protected:
  int_type underflow() override;

 private:
  Generator gen_;
  bool paced_ = false;
  std::int64_t start_ns_ = 0;
  std::vector<std::int64_t> offsets_ns_;
  std::string buf_;
  std::vector<LineTimes> times_;
};

class LineSink : public std::streambuf {
 public:
  struct Record {
    std::uint64_t job = 0;       ///< index parsed from {"job": N
    std::uint64_t digest = 0;    ///< fnv1a of the text after the index
    std::int64_t written_ns = 0; ///< instant the record's '\n' arrived
    bool error = false;          ///< the record is an error object
  };

  explicit LineSink(std::size_t expected_records = 0);

  const std::vector<Record>& records() const noexcept { return records_; }
  /// Lines that were not job records: the trailing summary object.
  const std::string& summary() const noexcept { return summary_; }

 protected:
  int_type overflow(int_type ch) override;
  std::streamsize xsputn(const char* s, std::streamsize n) override;

 private:
  void end_line(std::int64_t t);

  std::string line_;
  std::vector<Record> records_;
  std::string summary_;
};

}  // namespace e2e
