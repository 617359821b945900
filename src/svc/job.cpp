#include "armbar/svc/job.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <stdexcept>
#include <string>

namespace armbar::svc {

namespace {

/// Minimal strict parser for one flat JSON object.  The job schema is
/// deliberately flat (no nesting, no arrays), so a hand-rolled tokenizer
/// stays small, dependency-free, and easy to fuzz; anything outside the
/// subset is rejected with a position-precise message.
class FlatJsonParser {
 public:
  explicit FlatJsonParser(const std::string& text) : s_(text) {}

  /// Calls @p field(key, string_value, number_value, is_string) per pair.
  template <typename FieldFn>
  void parse_object(FieldFn&& field) {
    skip_ws();
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      finish();
      return;
    }
    for (;;) {
      skip_ws();
      const std::string key = parse_string("field name");
      skip_ws();
      expect(':');
      skip_ws();
      if (peek() == '"') {
        field(key, parse_string("value of '" + key + "'"), 0.0, true);
      } else {
        field(key, std::string(), parse_number(key), false);
      }
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        finish();
        return;
      }
      fail("expected ',' or '}'");
    }
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("job line: " + what + " at offset " +
                                std::to_string(pos_));
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\r'))
      ++pos_;
  }

  void finish() {
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters after object");
  }

  std::string parse_string(const std::string& what) {
    if (peek() != '"') fail("expected string for " + what);
    ++pos_;
    std::string out;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("raw control character inside " + what);
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) break;
      const char esc = s_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad hex digit in \\u escape");
          }
          if (code > 0x7f) fail("non-ASCII \\u escape (unsupported)");
          out += static_cast<char>(code);
          break;
        }
        default: fail(std::string("unknown escape '\\") + esc + "'");
      }
    }
    fail("unterminated string in " + what);
  }

  double parse_number(const std::string& key) {
    // true/false are accepted nowhere in the schema; reject with a
    // field-precise message rather than a generic parse error.
    if (s_.compare(pos_, 4, "true") == 0 || s_.compare(pos_, 5, "false") == 0 ||
        s_.compare(pos_, 4, "null") == 0)
      fail("field '" + key + "' must be a number or string");
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (pos_ == start || (pos_ == start + 1 && s_[start] == '-'))
      fail("expected value for field '" + key + "'");
    std::size_t used = 0;
    const std::string tok = s_.substr(start, pos_ - start);
    double v = 0.0;
    try {
      v = std::stod(tok, &used);
    } catch (const std::exception&) {
      fail("unparseable number '" + tok + "' for field '" + key + "'");
    }
    if (used != tok.size() || !std::isfinite(v))
      fail("unparseable number '" + tok + "' for field '" + key + "'");
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

int require_int(const std::string& key, double v, long lo, long hi) {
  if (v != std::floor(v) || v < static_cast<double>(lo) ||
      v > static_cast<double>(hi))
    throw std::invalid_argument("job line: field '" + key +
                                "' must be an integer in [" +
                                std::to_string(lo) + ", " +
                                std::to_string(hi) + "]");
  return static_cast<int>(v);
}

/// Append a number to a cache key.  std::to_chars ignores the locale,
/// and for a double it writes the shortest text that reads back to the
/// same value, so two doubles render alike only when they are identical.
template <typename T>
void append_num(std::string& key, T v) {
  char buf[32];
  key.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/// Append a name with its length first, so no name can borrow the
/// separators of the fields after it.
void append_str(std::string& key, const std::string& s) {
  append_num(key, s.size());
  key += ':';
  key += s;
}

}  // namespace

JobSpec parse_job_line(const std::string& line) {
  JobSpec spec;
  FlatJsonParser parser(line);
  parser.parse_object([&](const std::string& key, const std::string& sval,
                          double nval, bool is_string) {
    const auto want_string = [&]() -> const std::string& {
      if (!is_string)
        throw std::invalid_argument("job line: field '" + key +
                                    "' must be a string");
      return sval;
    };
    const auto want_number = [&]() -> double {
      if (is_string)
        throw std::invalid_argument("job line: field '" + key +
                                    "' must be a number");
      return nval;
    };
    if (key == "machine") spec.machine = want_string();
    else if (key == "algo") spec.algo = want_string();
    else if (key == "placement") spec.placement = want_string();
    else if (key == "threads")
      spec.threads = require_int(key, want_number(), 1, 1 << 20);
    else if (key == "iterations")
      spec.iterations = require_int(key, want_number(), 1, 1 << 20);
    else if (key == "warmup")
      spec.warmup = require_int(key, want_number(), 0, 1 << 20);
    else if (key == "noise_period_us")
      spec.fault.noise.period_us = want_number();
    else if (key == "noise_duration_us")
      spec.fault.noise.duration_us = want_number();
    else if (key == "burst_interval_us")
      spec.fault.burst.interval_us = want_number();
    else if (key == "burst_duration_us")
      spec.fault.burst.duration_us = want_number();
    else if (key == "straggler_fraction")
      spec.fault.straggler.fraction = want_number();
    else if (key == "straggler_slowdown")
      spec.fault.straggler.slowdown = want_number();
    else if (key == "straggler_dwell_us")
      spec.fault.straggler.dwell_us = want_number();
    else if (key == "link_min_layer")
      spec.fault.link.min_layer = require_int(key, want_number(), 0, 64);
    else if (key == "link_factor")
      spec.fault.link.factor = want_number();
    else if (key == "link_flap_interval_us")
      spec.fault.link.flap_interval_us = want_number();
    else if (key == "link_flap_duration_us")
      spec.fault.link.flap_duration_us = want_number();
    else if (key == "fault_seed")
      spec.fault.seed = static_cast<std::uint64_t>(
          require_int(key, want_number(), 0, 1L << 62));
    else
      throw std::invalid_argument("job line: unknown field '" + key + "'");
  });
  return spec;
}

std::string cache_key(const JobSpec& spec) {
  // Fixed field order, every field always present, names length-prefixed:
  // distinct specs give distinct keys.
  const fault::FaultSpec& f = spec.fault;
  std::string key;
  key.reserve(160);
  key += 'v';
  append_num(key, kCacheSchemaVersion);
  key += "|m=";
  append_str(key, spec.machine);
  key += "|a=";
  append_str(key, spec.algo);
  key += "|t=";
  append_num(key, spec.threads);
  key += "|i=";
  append_num(key, spec.iterations);
  key += "|w=";
  append_num(key, spec.effective_warmup());
  key += "|p=";
  append_str(key, spec.placement);
  key += "|np=";
  append_num(key, f.noise.period_us);
  key += "|nd=";
  append_num(key, f.noise.duration_us);
  key += "|bi=";
  append_num(key, f.burst.interval_us);
  key += "|bd=";
  append_num(key, f.burst.duration_us);
  key += "|sf=";
  append_num(key, f.straggler.fraction);
  key += "|ss=";
  append_num(key, f.straggler.slowdown);
  key += "|sd=";
  append_num(key, f.straggler.dwell_us);
  key += "|ll=";
  append_num(key, f.link.min_layer);
  key += "|lf=";
  append_num(key, f.link.factor);
  key += "|fi=";
  append_num(key, f.link.flap_interval_us);
  key += "|fd=";
  append_num(key, f.link.flap_duration_us);
  key += "|fs=";
  append_num(key, f.seed);
  return key;
}

}  // namespace armbar::svc
