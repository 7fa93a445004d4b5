#pragma once
// Minimal command-line flag parser for the tools: supports
//   --flag value   and   --flag=value   and declared boolean   --flag
// Unknown flags are collected as errors so tools can fail fast with usage.

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace tfpe::util {

class ArgParser {
 public:
  /// Parses argv; flags must start with "--". Positional arguments are kept
  /// in order and available via positional(). `boolean_flags` names the
  /// flags that never take a value, so "--strict PATH" leaves PATH
  /// positional whichever order the two come in; any other flag binds a
  /// following non-flag token as its value ("--gpus 64"). Throws
  /// std::invalid_argument when a boolean flag is given "=value".
  ArgParser(int argc, const char* const* argv,
            const std::set<std::string>& boolean_flags = {});

  /// Value of --name, if present (boolean flags yield "").
  std::optional<std::string> get(const std::string& name) const;

  std::string get_or(const std::string& name, const std::string& fallback) const;
  std::int64_t get_int_or(const std::string& name, std::int64_t fallback) const;
  double get_double_or(const std::string& name, double fallback) const;
  bool has(const std::string& name) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Flags seen but never queried — call after all get()s to reject typos.
  std::vector<std::string> unused() const;

 private:
  std::map<std::string, std::string> flags_;
  mutable std::map<std::string, bool> queried_;
  std::vector<std::string> positional_;
};

}  // namespace tfpe::util
