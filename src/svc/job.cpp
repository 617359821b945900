#include "armbar/svc/job.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>

namespace armbar::svc {

namespace {

/// Minimal strict parser for one flat JSON object.  The job schema is
/// deliberately flat (no nesting, no arrays), so a hand-rolled tokenizer
/// stays small, dependency-free, and easy to fuzz; anything outside the
/// subset is rejected with a position-precise message.  Names and values
/// are views into the line, or into a decode buffer when they hold
/// escapes; error-context text is built only on the failure path.
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
      const std::string_view key = parse_string(nullptr, key_buf_);
      skip_ws();
      expect(':');
      skip_ws();
      if (peek() == '"') {
        field(key, parse_string(&key, value_buf_), 0.0, true);
      } else {
        field(key, std::string_view(), parse_number(key), false);
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

  /// What a string is, for error messages: the value of field @p *key,
  /// or a field name when @p key is null.
  static std::string what(const std::string_view* key) {
    return key != nullptr ? "value of '" + std::string(*key) + "'"
                          : std::string("field name");
  }

  /// Parse a string token.  Without escapes the result is a view into
  /// the line; otherwise it is decoded into @p buf.
  std::string_view parse_string(const std::string_view* key,
                                std::string& buf) {
    if (peek() != '"') fail("expected string for " + what(key));
    const std::size_t start = ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') return std::string_view(s_).substr(start, pos_++ - start);
      if (c == '\\') break;
      if (static_cast<unsigned char>(c) < 0x20) {
        ++pos_;
        fail("raw control character inside " + what(key));
      }
      ++pos_;
    }
    buf.assign(s_, start, pos_ - start);
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return buf;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("raw control character inside " + what(key));
      if (c != '\\') {
        buf += c;
        continue;
      }
      if (pos_ >= s_.size()) break;
      const char esc = s_[pos_++];
      switch (esc) {
        case '"': buf += '"'; break;
        case '\\': buf += '\\'; break;
        case '/': buf += '/'; break;
        case 'b': buf += '\b'; break;
        case 'f': buf += '\f'; break;
        case 'n': buf += '\n'; break;
        case 'r': buf += '\r'; break;
        case 't': buf += '\t'; break;
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
          buf += static_cast<char>(code);
          break;
        }
        default: fail(std::string("unknown escape '\\") + esc + "'");
      }
    }
    fail("unterminated string in " + what(key));
  }

  double parse_number(std::string_view key) {
    // true/false are accepted nowhere in the schema; reject with a
    // field-precise message rather than a generic parse error.
    if (s_.compare(pos_, 4, "true") == 0 || s_.compare(pos_, 5, "false") == 0 ||
        s_.compare(pos_, 4, "null") == 0)
      fail("field '" + std::string(key) + "' must be a number or string");
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
      fail("expected value for field '" + std::string(key) + "'");
    // std::from_chars and std::stod both round correctly, so they agree
    // on every token from_chars reads whole to zero or a normal double.
    // Everything else (partial reads, overflow, subnormals, which stod
    // rejects only when inexact) takes stod's path, so the accepted set
    // and every message stay stod's.
    const char* first = s_.data() + start;
    const char* last = s_.data() + pos_;
    double v = 0.0;
    const auto [end, ec] = std::from_chars(first, last, v);
    if (ec == std::errc() && end == last &&
        (v == 0.0 || std::fabs(v) >= std::numeric_limits<double>::min()))
      return v;
    const std::string tok(first, last);
    std::size_t used = 0;
    try {
      v = std::stod(tok, &used);
    } catch (const std::exception&) {
      // `used` stays 0: rejected below.
    }
    if (used != tok.size() || !std::isfinite(v))
      fail("unparseable number '" + tok + "' for field '" + std::string(key) +
           "'");
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  std::string key_buf_;
  std::string value_buf_;
};

int require_int(std::string_view key, double v, long lo, long hi) {
  if (v != std::floor(v) || v < static_cast<double>(lo) ||
      v > static_cast<double>(hi))
    throw std::invalid_argument("job line: field '" + std::string(key) +
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
  parser.parse_object([&](std::string_view key, std::string_view sval,
                          double nval, bool is_string) {
    const auto want_string = [&]() -> std::string_view {
      if (!is_string)
        throw std::invalid_argument("job line: field '" + std::string(key) +
                                    "' must be a string");
      return sval;
    };
    const auto want_number = [&]() -> double {
      if (is_string)
        throw std::invalid_argument("job line: field '" + std::string(key) +
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
      throw std::invalid_argument("job line: unknown field '" +
                                  std::string(key) + "'");
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
