// Shared helpers for the experiment harnesses: consistent banner /
// row printing so every binary emits both a human-readable table and
// machine-readable CSV rows (prefixed "csv,") that plotting scripts can
// grep out.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/cli.hpp"

namespace sbk::bench {

inline void banner(const std::string& experiment, const std::string& what) {
  std::printf("==================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("%s\n", what.c_str());
  std::printf("==================================================================\n");
}

inline void csv_row(const std::vector<std::string>& fields) {
  std::printf("csv");
  for (const std::string& f : fields) std::printf(",%s", f.c_str());
  std::printf("\n");
}

inline std::string fmt(double v, int precision = 4) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", precision, v);
  return buf;
}

inline std::string fmt_pct(double fraction, int precision = 2) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f%%", precision, fraction * 100.0);
  return buf;
}

/// One integer "--name=N" override a harness accepts, with its default.
struct IntFlag {
  std::string_view name;
  long long fallback;
};

/// A harness's integer overrides, parsed strictly by util::cli: an
/// unknown flag, a flag without a value, a value that is not a whole
/// integer, or a positional argument prints the error and a usage line
/// to stderr and exits 2 instead of running the defaults.
class IntArgs {
 public:
  IntArgs(int argc, char** argv, std::initializer_list<IntFlag> flags)
      : flags_(flags) {
    std::vector<cli::FlagSpec> specs;
    for (const IntFlag& f : flags_) specs.push_back({f.name, true});
    const cli::ParseResult parsed =
        cli::parse_args(argc, argv, specs, /*max_positional=*/0);
    std::string error = parsed.error;
    for (const IntFlag& f : flags_) {
      if (!error.empty()) break;
      const std::optional<long long> v = parsed.int_or(f.name, f.fallback);
      if (v) {
        values_.push_back(*v);
      } else {
        error = "--" + std::string(f.name) + " wants an integer";
      }
    }
    if (error.empty()) return;
    std::string prog = argc > 0 ? argv[0] : "harness";
    prog = prog.substr(prog.find_last_of('/') + 1);
    std::fprintf(stderr, "%s: %s\nusage: %s", prog.c_str(), error.c_str(),
                 prog.c_str());
    for (const IntFlag& f : flags_) {
      std::fprintf(stderr, " [--%.*s=N (default %lld)]",
                   static_cast<int>(f.name.size()), f.name.data(), f.fallback);
    }
    std::fprintf(stderr, "\n");
    std::exit(2);
  }

  /// Value of a declared flag (its default when absent).
  [[nodiscard]] long long operator[](std::string_view name) const {
    for (std::size_t i = 0; i < flags_.size(); ++i) {
      if (flags_[i].name == name) return values_[i];
    }
    std::fprintf(stderr, "undeclared harness flag --%.*s\n",
                 static_cast<int>(name.size()), name.data());
    std::abort();
  }

 private:
  std::vector<IntFlag> flags_;
  std::vector<long long> values_;
};

}  // namespace sbk::bench
