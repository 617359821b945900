#pragma once
// Internal JSON emission helpers shared by the obs exporters
// (metrics.cpp, aggregate.cpp, perfetto.cpp).
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

namespace armbar::obs::detail {

/// An ostringstream whose numeric formatting ignores the global locale.
inline std::ostringstream json_stream() {
  std::ostringstream os;
  os.imbue(std::locale::classic());
  return os;
}

/// Finite double as a classic-locale stream prints it (%g, 6 digits);
/// NaN/Inf become "null".  std::to_chars never reads the locale.
inline std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  return std::string(
      buf, std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general,
                         6).ptr);
}

/// Like json_num, but clamps non-finite values to 0 for schema positions
/// that require a number (trace timestamps/durations).
inline std::string json_num_or_zero(double v) {
  return std::isfinite(v) ? json_num(v) : "0";
}

/// JSON string escaping covering quotes, backslashes, and every control
/// character below 0x20 (the full set RFC 8259 requires).
inline std::string escaped(const std::string& s) {
  static const char* hex = "0123456789abcdef";
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += hex[(static_cast<unsigned char>(c) >> 4) & 0xf];
          out += hex[static_cast<unsigned char>(c) & 0xf];
        } else {
          out += c;
        }
        break;
    }
  }
  return out;
}

}  // namespace armbar::obs::detail
