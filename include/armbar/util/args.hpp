#pragma once
// Minimal command-line option parser for the bench/example binaries.
//
// Supports "--key=value", "--key value", and bare "--flag" options.  The
// figure-reproduction binaries share a small set of switches (--csv,
// --machine, --threads, ...), so a dependency-free parser is enough.

#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace armbar::util {

class Args {
 public:
  /// Parses argv.  Throws std::invalid_argument on a duplicate option
  /// (`--x 1 --x 2` is a typo, not an override) or an empty option name
  /// (`--` / `--=v`).
  Args(int argc, const char* const* argv);

  /// True if "--name" was present (with or without a value).
  bool has(const std::string& name) const;

  /// Value of "--name"; std::nullopt if absent or valueless.
  std::optional<std::string> get(const std::string& name) const;

  std::string get_or(const std::string& name, std::string fallback) const;
  /// Typed getters: fallback when the flag is absent; std::invalid_argument
  /// when it is present without a value ("--iterations" alone) or with one
  /// that does not parse.  (get/get_or treat a valueless flag as absent —
  /// string options like a bare "--trace" legitimately default their value.)
  long get_int_or(const std::string& name, long fallback) const;
  double get_double_or(const std::string& name, double fallback) const;

  /// Throws std::invalid_argument("unknown option --x") for the first
  /// option, in name order, that @p known does not list, so a misspelled
  /// or removed flag fails instead of running with defaults.
  void reject_unknown(std::span<const std::string_view> known) const;

  /// Positional (non-option) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// argv[0].
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> options_;  // empty string => bare flag
  std::vector<std::string> positional_;
};

}  // namespace armbar::util
