#include "armbar/svc/job.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
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

/// Writes a cache key's fields as raw bytes into a key sized in advance.
class KeyWriter {
 public:
  explicit KeyWriter(std::string& key) : p_(key.data()) {}

  void bytes(const char* data, std::size_t n) {
    std::memcpy(p_, data, n);
    p_ += n;
  }

  template <typename T>
  void raw(const T& v) {
    bytes(reinterpret_cast<const char*>(&v), sizeof v);
  }

  /// A name with its length first, so no name can borrow the bytes of
  /// the fields after it.  A length that does not fit below the uint32
  /// maximum is written as that maximum and then in full as a uint64.
  void name(const std::string& s) {
    const bool long_name = s.size() >= kLongName;
    raw(long_name ? kLongName : static_cast<std::uint32_t>(s.size()));
    if (long_name) raw(static_cast<std::uint64_t>(s.size()));
    bytes(s.data(), s.size());
  }

  /// Bytes name(@p s) writes.
  static std::size_t name_size(const std::string& s) {
    return sizeof(std::uint32_t) +
           (s.size() >= kLongName ? sizeof(std::uint64_t) : 0) + s.size();
  }

 private:
  static constexpr std::uint32_t kLongName = 0xffffffff;
  char* p_;
};

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
  // distinct specs give distinct keys.  Doubles go in as their bit
  // patterns, so two are equal exactly when they are the same double.
  char prefix[16] = {'v'};
  char* prefix_end =
      std::to_chars(prefix + 1, prefix + sizeof prefix - 1, kCacheSchemaVersion)
          .ptr;
  *prefix_end++ = '|';
  const auto prefix_size = static_cast<std::size_t>(prefix_end - prefix);
  const fault::FaultSpec& f = spec.fault;
  constexpr std::size_t kFields =
      sizeof spec.threads + sizeof spec.iterations +
      sizeof spec.effective_warmup() + sizeof f.link.min_layer +
      10 * sizeof(double) + sizeof f.seed;
  std::string key(prefix_size + kFields + KeyWriter::name_size(spec.machine) +
                      KeyWriter::name_size(spec.algo) +
                      KeyWriter::name_size(spec.placement),
                  '\0');
  KeyWriter w(key);
  w.bytes(prefix, prefix_size);
  w.name(spec.machine);
  w.name(spec.algo);
  w.raw(spec.threads);
  w.raw(spec.iterations);
  w.raw(spec.effective_warmup());
  w.name(spec.placement);
  w.raw(f.noise.period_us);
  w.raw(f.noise.duration_us);
  w.raw(f.burst.interval_us);
  w.raw(f.burst.duration_us);
  w.raw(f.straggler.fraction);
  w.raw(f.straggler.slowdown);
  w.raw(f.straggler.dwell_us);
  w.raw(f.link.min_layer);
  w.raw(f.link.factor);
  w.raw(f.link.flap_interval_us);
  w.raw(f.link.flap_duration_us);
  w.raw(f.seed);
  return key;
}

}  // namespace armbar::svc
