#include "src/common/flags.h"

#include <cerrno>
#include <charconv>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "src/common/string_util.h"

namespace dipbench {
namespace flags {

FlagSet& FlagSet::Define(const std::string& name, const std::string& help) {
  defined_.emplace_back(name, help);
  return *this;
}

Status FlagSet::Parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      return Status::InvalidArgument(program_ + ": unexpected argument '" +
                                     arg + "' (flags are --name=value)");
    }
    const size_t eq = arg.find('=');
    const std::string name =
        eq == std::string::npos ? arg.substr(2) : arg.substr(2, eq - 2);
    bool known = false;
    for (const auto& [defined_name, help] : defined_) {
      if (defined_name == name) known = true;
    }
    if (!known) {
      return Status::InvalidArgument(program_ + ": unknown flag '--" + name +
                                     "'");
    }
    values_[name] = eq == std::string::npos ? "" : arg.substr(eq + 1);
  }
  return Status::OK();
}

bool FlagSet::Has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::string FlagSet::Get(const std::string& name,
                         const std::string& fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

Result<int> FlagSet::GetInt(const std::string& name, int fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& value = it->second;
  errno = 0;
  char* end = nullptr;
  long parsed = std::strtol(value.c_str(), &end, 10);
  if (value.empty() || end != value.c_str() + value.size() || errno != 0 ||
      parsed < INT_MIN || parsed > INT_MAX) {
    return Status::InvalidArgument(program_ + ": flag '--" + name + "=" +
                                   value + "' is not an integer");
  }
  return static_cast<int>(parsed);
}

Result<double> FlagSet::GetDouble(const std::string& name,
                                  double fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& value = it->second;
  errno = 0;
  char* end = nullptr;
  double parsed = std::strtod(value.c_str(), &end);
  if (value.empty() || end != value.c_str() + value.size() || errno != 0 ||
      !std::isfinite(parsed)) {
    return Status::InvalidArgument(program_ + ": flag '--" + name + "=" +
                                   value + "' is not a finite number");
  }
  return parsed;
}

Result<int> ParsePeriodsOverride(const char* value) {
  if (value == nullptr) return 0;
  const char* end = value + std::strlen(value);
  int periods = 0;
  auto [ptr, ec] = std::from_chars(value, end, periods);
  if (ec != std::errc() || ptr != end || periods < 1) {
    return Status::InvalidArgument(std::string("DIPBENCH_PERIODS='") + value +
                                   "' is not a positive integer");
  }
  return periods;
}

Result<int> PeriodsOverrideFromEnv() {
  return ParsePeriodsOverride(std::getenv("DIPBENCH_PERIODS"));
}

std::string FlagSet::Usage() const {
  std::string out = "usage: " + program_ + " [--flag=value ...]\n";
  for (const auto& [name, help] : defined_) {
    out += StrFormat("  --%-24s %s\n", name.c_str(), help.c_str());
  }
  return out;
}

}  // namespace flags
}  // namespace dipbench
