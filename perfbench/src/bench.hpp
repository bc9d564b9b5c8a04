// Shared types of the benchmark harness: run options, the outcome a
// workload reports (metrics, checks, digest, layer table) and small
// helpers.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "spans.hpp"
#include "util/stats.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measurement budget of the run, in wall seconds.
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Toy sizes for the smoke test.
  bool toy = false;
  /// Where a traced run writes its span records (empty: nowhere).
  std::string spans_path;
};

/// One row of the traced run's wall-time table.
struct LayerRow {
  std::string layer;
  double seconds = 0.0;
};

/// Everything one workload run reports.
class Outcome {
 public:
  void set(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a correctness check; a failed one marks the run incorrect
  /// (each distinct failure is listed once).
  void check(bool ok, const std::string& what) {
    if (!ok && std::find(problems_.begin(), problems_.end(), what) ==
                   problems_.end()) {
      problems_.push_back(what);
    }
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Digest of the simulated outputs (hex), identical on every pass.
  std::string digest;
  /// Traced runs: per-layer split of the timed wall time (per pass).
  std::vector<LayerRow> table;
  double table_wall_s = 0.0;

  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  [[nodiscard]] const std::vector<Metric>& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] const std::vector<std::string>& problems() const noexcept {
    return problems_;
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> problems_;
};

/// The end-to-end throughput of a run: every item it completed over the
/// wall time of every timed pass, so each pass weighs by its length. The
/// benchmark host is shared, and a neighbour's load slows stretches of
/// passes; the whole-run ratio moves with that load less than any one
/// percentile of the per-pass rates (the fast end moves most).
[[nodiscard]] inline double throughput_of(double items,
                                          const sbk::Summary& walls) {
  return items / walls.sum();
}

/// 64-bit FNV-1a over the values fed to it.
class Digest {
 public:
  void add(std::string_view s) {
    for (unsigned char c : s) mix(c);
  }
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) mix(static_cast<unsigned char>(x >> (8 * i)));
  }
  void add(double x) { add(std::bit_cast<std::uint64_t>(x)); }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  void mix(unsigned char c) {
    h_ ^= c;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Reports the layer table's totals: the timed wall time, its
/// unattributed remainder (the table's last row) and the share the named
/// layers cover, which must be at least 90%.
inline void report_table(Outcome& out) {
  const double wall = out.table_wall_s;
  const double unattributed = out.table.back().seconds;
  const double attributed = wall > 0.0 ? 1.0 - unattributed / wall : 0.0;
  out.set("bench.wall_s", wall, "s");
  out.set("bench.unattributed_s", unattributed, "s");
  out.set("bench.attributed_frac", attributed, "ratio");
  out.check(attributed >= 0.9, "trace: named layers cover under 90% of wall");
}

/// Runs `pass` until `seconds` of wall time have gone by and at least
/// `min_passes` passes have run. Returns the number of passes.
inline std::size_t run_for(double seconds, std::size_t min_passes,
                           const std::function<void()>& pass) {
  const std::int64_t start = now_ns();
  std::size_t passes = 0;
  while (passes < min_passes ||
         seconds_between(start, now_ns()) < seconds) {
    pass();
    ++passes;
  }
  return passes;
}

/// Workload entry points (service_workloads.cpp, cct_workloads.cpp).
[[nodiscard]] Outcome run_service_workload(const Options& opt);
[[nodiscard]] Outcome run_cct_workload(const Options& opt);

}  // namespace perfbench
