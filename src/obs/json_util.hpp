#pragma once
// Internal JSON emission helpers shared by the obs exporters
// (metrics.cpp, aggregate.cpp, perfetto.cpp) and the sweep service.
// Two styles share one number format: a classic-locale stream with
// json_num/escaped, and the string appenders (append_int, append_num,
// append_escaped), which make no stream and no temporary string.
//
// Two hardening rules every exporter must follow:
//  * number formatting is pinned to the classic "C" locale — a process
//    that set a comma-decimal global locale must still produce parseable
//    JSON;
//  * non-finite doubles (NaN/Inf are legal IEEE but illegal JSON) are
//    emitted as "null" where the schema allows it, or clamped to 0 where
//    a number is required (Perfetto timestamps).

#include <charconv>
#include <cmath>
#include <locale>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>

namespace armbar::obs::detail {

/// An ostringstream whose numeric formatting ignores the global locale.
inline std::ostringstream json_stream() {
  std::ostringstream os;
  os.imbue(std::locale::classic());
  return os;
}

/// Append an integer as a classic-locale stream prints it (no digit
/// grouping).
template <typename Int>
inline void append_int(std::string& out, Int v) {
  static_assert(std::is_integral_v<Int>);
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/// Append a finite double as a classic-locale stream prints it (%g, 6
/// digits); NaN/Inf become "null".  std::to_chars never reads the locale.
inline void append_num(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v,
                                std::chars_format::general, 6)
                      .ptr);
}

/// append_num as a string.
inline std::string json_num(double v) {
  std::string s;
  append_num(s, v);
  return s;
}

/// Like json_num, but clamps non-finite values to 0 for schema positions
/// that require a number (trace timestamps/durations).
inline std::string json_num_or_zero(double v) {
  return std::isfinite(v) ? json_num(v) : "0";
}

/// Append @p s with JSON string escaping covering quotes, backslashes,
/// and every control character below 0x20 (the full set RFC 8259
/// requires).  Runs that need no escape are appended whole.
inline void append_escaped(std::string& out, std::string_view s) {
  static const char* hex = "0123456789abcdef";
  std::size_t run = 0;  // start of the pending unescaped run
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        out += "\\u00";
        out += hex[(c >> 4) & 0xf];
        out += hex[c & 0xf];
        break;
    }
  }
  out.append(s.data() + run, s.size() - run);
}

/// append_escaped as a string.
inline std::string escaped(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_escaped(out, s);
  return out;
}

}  // namespace armbar::obs::detail
