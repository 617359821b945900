#include "io.hpp"

#include <algorithm>
#include <cstring>
#include <thread>
#include <utility>

#include "cells.hpp"

namespace e2e {

namespace {

constexpr char kJobPrefix[] = "{\"job\": ";
constexpr std::size_t kJobPrefixLen = sizeof kJobPrefix - 1;
constexpr char kErrorTail[] = ", \"error\": ";

// Position just past the index of a {"job": N record line, or 0 when
// @p line is not one.
std::size_t parse_index(const std::string& line, std::uint64_t& job) {
  if (line.compare(0, kJobPrefixLen, kJobPrefix) != 0) return 0;
  std::size_t i = kJobPrefixLen;
  job = 0;
  while (i < line.size() && line[i] >= '0' && line[i] <= '9')
    job = job * 10 + static_cast<std::uint64_t>(line[i++] - '0');
  return i == kJobPrefixLen ? 0 : i;
}

}  // namespace

// -- LineSource --------------------------------------------------------------

LineSource::LineSource(Generator gen, std::size_t expected_lines)
    : gen_(std::move(gen)) {
  times_.reserve(expected_lines);
}

LineSource::LineSource(Generator gen, std::int64_t start_ns,
                       std::vector<std::int64_t> offsets_ns)
    : gen_(std::move(gen)),
      paced_(true),
      start_ns_(start_ns),
      offsets_ns_(std::move(offsets_ns)) {
  times_.reserve(offsets_ns_.size());
}

LineSource::int_type LineSource::underflow() {
  if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
  const std::size_t index = times_.size();
  if (paced_ && index >= offsets_ns_.size()) return traits_type::eof();
  const std::int64_t requested = now_ns();
  buf_.clear();
  if (!gen_(index, buf_)) return traits_type::eof();
  buf_.push_back('\n');
  LineTimes t;
  t.due_ns = requested;
  if (paced_) {
    t.due_ns = start_ns_ + offsets_ns_[index];
    if (t.due_ns > requested)
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(t.due_ns)));
  }
  t.read_ns = now_ns();
  t.lag_ns = t.read_ns - std::max(t.due_ns, requested);
  times_.push_back(t);
  setg(buf_.data(), buf_.data(), buf_.data() + buf_.size());
  return traits_type::to_int_type(*gptr());
}

// -- LineSink ----------------------------------------------------------------

LineSink::LineSink(std::size_t expected_records) {
  records_.reserve(expected_records);
  line_.reserve(512);
}

LineSink::int_type LineSink::overflow(int_type ch) {
  if (traits_type::eq_int_type(ch, traits_type::eof()))
    return traits_type::not_eof(ch);
  const char c = traits_type::to_char_type(ch);
  if (c == '\n')
    end_line(now_ns());
  else
    line_.push_back(c);
  return ch;
}

std::streamsize LineSink::xsputn(const char* s, std::streamsize n) {
  const char* p = s;
  const char* end = s + n;
  while (p < end) {
    const auto* nl = static_cast<const char*>(
        std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
    if (nl == nullptr) {
      line_.append(p, end);
      break;
    }
    line_.append(p, nl);
    end_line(now_ns());
    p = nl + 1;
  }
  return n;
}

void LineSink::end_line(std::int64_t t) {
  Record r;
  const std::size_t i = parse_index(line_, r.job);
  if (i == 0) {
    summary_ += line_;
    summary_ += '\n';
    line_.clear();
    return;
  }
  r.digest = fnv1a(line_.data() + i, line_.size() - i);
  r.written_ns = t;
  r.error = line_.compare(i, sizeof kErrorTail - 1, kErrorTail) == 0;
  records_.push_back(r);
  line_.clear();
}

}  // namespace e2e
