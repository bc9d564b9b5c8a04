// Strict command-line parsing shared by the example CLIs. The previous
// hand-rolled loops silently ignored unknown flags and parsed garbage
// numerics as 0 via strtol — a mistyped `--sceanrios=...` or a stray
// argument would run a soak with defaults and report success. Here every
// flag must be declared, every declared value-flag must carry a
// non-empty value, and numerics must consume their whole token;
// violations produce an error for the caller to print alongside its
// usage text before exiting non-zero.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sbk::cli {

/// One accepted `--name` flag. `requires_value` flags take the form
/// `--name=value`; bare flags reject any attached value.
struct FlagSpec {
  std::string_view name;  ///< without the leading "--"
  bool requires_value = true;
};

struct ParsedFlag {
  std::string name;
  std::string value;  ///< empty for bare flags
};

/// Result of parse_args: either ok() with flags/positionals, or an
/// error message describing the first rejected argument.
struct ParseResult {
  std::vector<ParsedFlag> flags;
  std::vector<std::string> positional;
  std::string error;

  [[nodiscard]] bool ok() const noexcept { return error.empty(); }
  /// Last value of a flag, or nullopt when absent.
  [[nodiscard]] std::optional<std::string> value_of(
      std::string_view name) const;
  [[nodiscard]] bool has(std::string_view name) const;
  /// Last value of a flag as a whole-token number: `fallback` when the
  /// flag is absent, nullopt when its value is malformed.
  [[nodiscard]] std::optional<long long> int_or(std::string_view name,
                                                long long fallback) const;
  [[nodiscard]] std::optional<double> double_or(std::string_view name,
                                                double fallback) const;
};

/// Parses argv[1..argc). Arguments starting with "--" must match a spec;
/// anything else is positional. `max_positional` bounds the positional
/// count (excess is an error, catching forgotten `--` prefixes).
[[nodiscard]] ParseResult parse_args(int argc, const char* const* argv,
                                     const std::vector<FlagSpec>& specs,
                                     std::size_t max_positional = 64);

/// Whole-token numeric conversions: "12x", "", and out-of-range values
/// yield nullopt instead of a silent prefix parse.
[[nodiscard]] std::optional<long long> parse_int(std::string_view text);
[[nodiscard]] std::optional<double> parse_double(std::string_view text);

}  // namespace sbk::cli
