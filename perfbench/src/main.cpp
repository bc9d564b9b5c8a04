// Benchmark harness entry point.
//
//   sbk_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                 [--toy] [--spans FILE]
//
// Workloads: service_churn, failover_churn, reroute_cct, maxmin_cct.
// Prints a human-readable report, then, as its last line, one JSON
// object with the run's metrics, checks, output digest and build facts.
// perfbench/run.py builds this program and turns that line into the
// benchmark's result.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>

#include "bench.hpp"

namespace {

using perfbench::Options;
using perfbench::Outcome;

int usage(const std::string& error) {
  std::cerr << "sbk_perfbench: " << error
            << "\nusage: sbk_perfbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--toy] [--spans FILE]\n";
  return 2;
}

bool optimized_build() {
#if defined(__OPTIMIZE__)
  return true;
#else
  return false;
#endif
}

const char* sanitizers() {
#if defined(__SANITIZE_ADDRESS__) && defined(__SANITIZE_THREAD__)
  return "address,thread";
#elif defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#else
  return "";
#endif
}

/// JSON string literal (the report only carries plain ASCII).
std::string quoted(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void print_table(const Outcome& out) {
  if (out.table.empty()) return;
  std::cout << "layer table (wall seconds per pass; rows sum to the timed "
               "wall time)\n";
  for (const perfbench::LayerRow& row : out.table) {
    const double share =
        out.table_wall_s > 0.0 ? row.seconds / out.table_wall_s : 0.0;
    std::printf("  %-52s %10.6f s  %6.2f%%\n", row.layer.c_str(), row.seconds,
                100.0 * share);
  }
  std::printf("  %-52s %10.6f s\n", "timed wall time", out.table_wall_s);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--toy") {
      opt.toy = true;
      continue;
    }
    const char* v = value();
    if (v == nullptr) return usage("missing value for " + std::string(arg));
    if (arg == "--workload") {
      opt.workload = v;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      opt.trace = std::string_view(v) == "1";
    } else if (arg == "--spans") {
      opt.spans_path = v;
    } else {
      return usage("unknown flag " + std::string(arg));
    }
  }
  if (!(opt.seconds > 0.0)) return usage("--seconds must be > 0");

  Outcome out;
  try {
    if (opt.workload == "service_churn" || opt.workload == "failover_churn") {
      out = perfbench::run_service_workload(opt);
    } else if (opt.workload == "reroute_cct" ||
               opt.workload == "maxmin_cct") {
      out = perfbench::run_cct_workload(opt);
    } else {
      return usage("unknown workload '" + opt.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "sbk_perfbench: " << e.what() << "\n";
    return 1;
  }

  if (opt.trace && !opt.spans_path.empty()) {
    std::ofstream spans(opt.spans_path);
    perfbench::tracer::write_json(spans);
    if (!spans.good()) {
      std::cerr << "sbk_perfbench: cannot write " << opt.spans_path << "\n";
      return 1;
    }
  }

  print_table(out);
  for (const std::string& p : out.problems()) {
    std::cout << "CHECK FAILED: " << p << "\n";
  }

  std::cout << "{\"correct\":" << (out.problems().empty() ? "true" : "false")
            << ",\"attempted\":" << out.attempted
            << ",\"failed\":" << out.failed << ",\"digest\":"
            << quoted(out.digest) << ",\"problems\":[";
  for (std::size_t i = 0; i < out.problems().size(); ++i) {
    std::cout << (i ? "," : "") << quoted(out.problems()[i]);
  }
  std::cout << "],\"build\":{\"optimized\":"
            << (optimized_build() ? "true" : "false")
            << ",\"sanitizers\":" << quoted(sanitizers())
            << ",\"compiler\":" << quoted(__VERSION__) << "},\"metrics\":{";
  bool first = true;
  std::cout.precision(17);
  for (const auto& m : out.metrics()) {
    std::cout << (first ? "" : ",") << quoted(m.name) << ":{\"value\":"
              << m.value << ",\"unit\":" << quoted(m.unit) << "}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return 0;
}
