#ifndef DIPBENCH_COMMON_FLAGS_H_
#define DIPBENCH_COMMON_FLAGS_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/result.h"

namespace dipbench {
namespace flags {

/// Declarative `--name=value` command-line parser shared by the bench
/// binaries. Each bench declares the flags it accepts; everything else —
/// an unknown flag, a positional argument, a missing '=', a non-numeric
/// value handed to a numeric getter — is an InvalidArgument that names the
/// offending argument. Before this, every bench carried its own FlagValue()
/// scan that silently ignored typos (`--fault-rat=0.1` ran a clean
/// benchmark) and atoi'd garbage to 0.
///
/// Convention across benches: on a parse error, print the status and
/// Usage() to stderr and exit with code 2.
class FlagSet {
 public:
  explicit FlagSet(std::string program) : program_(std::move(program)) {}

  /// Declares a flag. `name` is bare ("jobs", not "--jobs").
  FlagSet& Define(const std::string& name, const std::string& help);

  /// Parses argv against the declared flags. Only `--name=value` (and the
  /// bare boolean form `--name`) are accepted.
  Status Parse(int argc, char** argv);

  /// True when the flag appeared on the command line.
  bool Has(const std::string& name) const;

  /// The flag's raw value ("" when absent or bare).
  std::string Get(const std::string& name,
                  const std::string& fallback = "") const;

  /// Numeric accessors: `fallback` when the flag is absent, an
  /// InvalidArgument naming flag and value when it does not parse fully
  /// (or, for GetDouble, parses to NaN or an infinity).
  Result<int> GetInt(const std::string& name, int fallback) const;
  Result<double> GetDouble(const std::string& name, double fallback) const;

  /// One line per declared flag.
  std::string Usage() const;

 private:
  std::string program_;
  std::vector<std::pair<std::string, std::string>> defined_;
  std::map<std::string, std::string> values_;
};

/// Parses a value of DIPBENCH_PERIODS, the benches' period-count override:
/// null (the variable is unset) gives 0, meaning no override; a positive
/// decimal integer that fits in int gives the count; anything else is an
/// InvalidArgument that quotes the value. Benches print it and exit 2.
Result<int> ParsePeriodsOverride(const char* value);

/// ParsePeriodsOverride of the DIPBENCH_PERIODS environment variable.
Result<int> PeriodsOverrideFromEnv();

}  // namespace flags
}  // namespace dipbench

#endif  // DIPBENCH_COMMON_FLAGS_H_
