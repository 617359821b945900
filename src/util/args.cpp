#include "armbar/util/args.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

namespace armbar::util {

Args::Args(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  const auto set = [this](std::string key, std::string value) {
    if (key.empty())
      throw std::invalid_argument("empty option name ('--' or '--=value')");
    if (options_.count(key) != 0)
      throw std::invalid_argument("duplicate option --" + key);
    options_.emplace(std::move(key), std::move(value));
  };
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) {
      positional_.push_back(std::move(a));
      continue;
    }
    a.erase(0, 2);
    if (const auto eq = a.find('='); eq != std::string::npos) {
      set(a.substr(0, eq), a.substr(eq + 1));
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      set(std::move(a), argv[++i]);
    } else {
      set(std::move(a), "");
    }
  }
}

bool Args::has(const std::string& name) const {
  return options_.count(name) != 0;
}

void Args::reject_unknown(std::span<const std::string_view> known) const {
  for (const auto& option : options_)
    if (std::find(known.begin(), known.end(), option.first) == known.end())
      throw std::invalid_argument("unknown option --" + option.first);
}

std::optional<std::string> Args::get(const std::string& name) const {
  const auto it = options_.find(name);
  if (it == options_.end() || it->second.empty()) return std::nullopt;
  return it->second;
}

std::string Args::get_or(const std::string& name, std::string fallback) const {
  const auto v = get(name);
  return v ? *v : std::move(fallback);
}

long Args::get_int_or(const std::string& name, long fallback) const {
  const auto v = get(name);
  if (!v) {
    if (has(name))
      throw std::invalid_argument("--" + name + " requires a value");
    return fallback;
  }
  char* end = nullptr;
  const long out = std::strtol(v->c_str(), &end, 10);
  if (end == v->c_str() || *end != '\0')
    throw std::invalid_argument("--" + name + " expects an integer, got '" + *v + "'");
  return out;
}

double Args::get_double_or(const std::string& name, double fallback) const {
  const auto v = get(name);
  if (!v) {
    if (has(name))
      throw std::invalid_argument("--" + name + " requires a value");
    return fallback;
  }
  char* end = nullptr;
  const double out = std::strtod(v->c_str(), &end);
  if (end == v->c_str() || *end != '\0')
    throw std::invalid_argument("--" + name + " expects a number, got '" + *v + "'");
  return out;
}

}  // namespace armbar::util
