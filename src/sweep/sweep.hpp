// Scenario-sweep engine: fans independent (seed, failure-scenario)
// simulations out across cores. Every evaluation in the paper — the
// Fig. 1(c) CCT-slowdown CDF, the §5.1 capacity Monte-Carlo, the
// provisioning ablation — is a sweep over scenarios × seeds; this module
// is the shared substrate so benches stop hand-rolling serial loops.
//
// Determinism contract: every scenario gets its own RNG stream whose
// seed is derived from (master_seed, scenario_index) via splitmix64, and
// results are stored by scenario index. Consequently a parallel sweep is
// bit-identical to the same sweep at threads=1 — thread scheduling can
// reorder execution but never the seeds or the result slots.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <exception>
#include <mutex>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/slo/health_snapshot.hpp"
#include "obs/slo/slo_monitor.hpp"
#include "obs/timeseries.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "util/time.hpp"

namespace sbk::sweep {

/// One round of the splitmix64 mixer (Steele, Lea & Flood; public
/// domain constants). Bijective on 64-bit integers with strong
/// avalanche, which is what makes derived seeds statistically
/// independent even for adjacent indices.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t x) noexcept;

/// Child seed for one scenario of a sweep: mixes the master seed and the
/// scenario index through splitmix64 so that neighbouring indices (and
/// neighbouring master seeds) yield decorrelated streams.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t master_seed,
                                        std::uint64_t scenario_index) noexcept;

/// Identity of one scenario inside a sweep, handed to the scenario
/// callable. `seed` is already derived; rng() is the conventional way to
/// start the scenario's private stream.
struct ScenarioSpec {
  std::size_t index = 0;
  std::uint64_t seed = 0;

  [[nodiscard]] Rng rng() const { return Rng(seed); }
};

struct SweepConfig {
  /// Root of every per-scenario seed (see derive_seed).
  std::uint64_t master_seed = 1;
  /// Worker threads. 0 = auto: the SBK_THREADS environment variable if
  /// set to a positive integer, else hardware concurrency.
  std::size_t threads = 0;
};

/// Merged observability sinks for SweepRunner::run_observed. Every
/// pointer is optional: a sink left null is neither built per scenario
/// nor merged.
struct SweepSinks {
  obs::MetricsRegistry* metrics = nullptr;
  obs::FlightRecorder* recorder = nullptr;
  /// Ring capacity of each scenario's private recorder (the merged
  /// recorder's capacity is whatever the caller constructed it with).
  static constexpr std::size_t kRecorderCapacity =
      obs::FlightRecorder::kDefaultCapacity;
  /// Each scenario's TelemetrySampler samples every 10 ms of sim time.
  obs::TelemetryTable* telemetry = nullptr;
  /// Objective prototype: each scenario judges on slo->clone_config().
  obs::slo::SloMonitor* slo = nullptr;
  obs::slo::HealthLog* health = nullptr;
};

/// One scenario's private sinks; each is null unless its merged
/// counterpart was set in SweepSinks.
struct ScenarioSinks {
  obs::MetricsRegistry* metrics = nullptr;
  obs::FlightRecorder* recorder = nullptr;
  obs::TelemetrySampler* sampler = nullptr;
  obs::slo::SloMonitor* slo = nullptr;
  obs::slo::HealthLog* health = nullptr;
};

/// Resolves a requested thread count per the SweepConfig::threads rule.
[[nodiscard]] std::size_t resolve_threads(std::size_t requested);

/// Runs N independent scenarios, in parallel when configured, and
/// returns their results in scenario order.
///
/// The scenario callable is invoked concurrently from pool workers: it
/// must only touch shared state read-only (topologies under mutation,
/// routers with internal caches etc. must be constructed per scenario).
/// The first exception a scenario throws is rethrown from run() after
/// the sweep winds down; scenarios not yet started are abandoned.
class SweepRunner {
 public:
  explicit SweepRunner(SweepConfig cfg = {});

  [[nodiscard]] std::size_t threads() const noexcept { return threads_; }
  [[nodiscard]] std::uint64_t master_seed() const noexcept {
    return cfg_.master_seed;
  }

  /// fn: (const ScenarioSpec&) -> R, with R default-constructible (the
  /// result vector is pre-sized so workers write without synchronising).
  template <typename Fn>
  auto run(std::size_t scenario_count, Fn&& fn)
      -> std::vector<std::invoke_result_t<Fn&, const ScenarioSpec&>> {
    using R = std::invoke_result_t<Fn&, const ScenarioSpec&>;
    static_assert(std::is_default_constructible_v<R>,
                  "scenario results are collected into a pre-sized vector");
    std::vector<R> results(scenario_count);
    if (scenario_count == 0) return results;

    auto spec_at = [this](std::size_t i) {
      return ScenarioSpec{i, derive_seed(cfg_.master_seed, i)};
    };

    const std::size_t workers = std::min(threads_, scenario_count);
    if (workers <= 1) {
      for (std::size_t i = 0; i < scenario_count; ++i) {
        results[i] = fn(spec_at(i));
      }
      return results;
    }

    std::atomic<std::size_t> next{0};
    std::mutex error_mu;
    std::exception_ptr first_error;
    {
      ThreadPool pool(workers);
      for (std::size_t w = 0; w < workers; ++w) {
        pool.submit([&] {
          for (;;) {
            std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= scenario_count) return;
            try {
              results[i] = fn(spec_at(i));
            } catch (...) {
              std::lock_guard<std::mutex> lk(error_mu);
              if (!first_error) first_error = std::current_exception();
              // Abandon unstarted scenarios; in-flight ones finish.
              next.store(scenario_count, std::memory_order_relaxed);
            }
          }
        });
      }
      pool.wait_idle();
    }
    if (first_error) std::rethrow_exception(first_error);
    return results;
  }

  /// Sweep whose scenarios each produce a batch of scalar samples
  /// (fn: (const ScenarioSpec&) -> std::vector<double>). Samples are
  /// accumulated thread-locally inside each scenario and merged into one
  /// Summary in scenario order — a single deterministic merge, so the
  /// resulting Summary (and any empirical_cdf over its samples) is
  /// independent of the thread count.
  template <typename Fn>
  [[nodiscard]] Summary run_summary(std::size_t scenario_count, Fn&& fn) {
    auto batches = run(scenario_count, std::forward<Fn>(fn));
    Summary out;
    for (const std::vector<double>& batch : batches) out.add_all(batch);
    return out;
  }

  /// Observed sweep: each scenario gets private instances of exactly
  /// the sinks set in `sinks` (no cross-thread sharing; unset sinks cost
  /// nothing), and a recorder, when present, opens a "sweep"/"scenario"
  /// span around the scenario. After the sweep one loop folds every
  /// private instance into its merged sink in scenario order, with the
  /// scenario index as the recorder/SLO/health track — so every merged
  /// sink (wall-clock trace fields aside) is independent of the thread
  /// count. Private instances live in deques because registries and
  /// recorders hand out references into themselves.
  /// fn: (const ScenarioSpec&, const ScenarioSinks&) -> R.
  template <typename Fn>
  auto run_observed(std::size_t scenario_count, const SweepSinks& sinks,
                    Fn&& fn)
      -> std::vector<std::invoke_result_t<Fn&, const ScenarioSpec&,
                                          const ScenarioSinks&>> {
    std::deque<obs::MetricsRegistry> metrics;
    std::deque<obs::FlightRecorder> recorders;
    std::deque<obs::TelemetrySampler> samplers;
    std::deque<obs::slo::SloMonitor> monitors;
    std::deque<obs::slo::HealthLog> logs;
    constexpr Seconds kTelemetryInterval = 0.01;
    for (std::size_t i = 0; i < scenario_count; ++i) {
      if (sinks.metrics != nullptr) {
        metrics.emplace_back(sinks.metrics->enabled());
      }
      if (sinks.recorder != nullptr) {
        recorders.emplace_back(sinks.recorder->enabled(),
                               SweepSinks::kRecorderCapacity);
      }
      if (sinks.telemetry != nullptr) {
        samplers.emplace_back(kTelemetryInterval,
                              sinks.telemetry->enabled());
      }
      if (sinks.slo != nullptr) monitors.push_back(sinks.slo->clone_config());
      if (sinks.health != nullptr) logs.emplace_back();
    }
    auto results = run(scenario_count, [&](const ScenarioSpec& spec) {
      const std::size_t i = spec.index;
      auto slot = [i](auto& items) {
        return items.empty() ? nullptr : &items[i];
      };
      const ScenarioSinks local{slot(metrics), slot(recorders),
                                slot(samplers), slot(monitors), slot(logs)};
      obs::ScopedSpan span(local.recorder, "sweep", "scenario", 0.0);
      return fn(spec, local);
    });
    for (std::size_t i = 0; i < scenario_count; ++i) {
      const auto track = static_cast<std::uint32_t>(i);
      if (sinks.metrics != nullptr) sinks.metrics->merge(metrics[i]);
      if (sinks.recorder != nullptr) sinks.recorder->merge(recorders[i], track);
      if (sinks.telemetry != nullptr) sinks.telemetry->append(i, samplers[i]);
      if (sinks.slo != nullptr) sinks.slo->merge(monitors[i], track);
      if (sinks.health != nullptr) sinks.health->append(logs[i], track);
    }
    return results;
  }

 private:
  SweepConfig cfg_;
  std::size_t threads_;
};

}  // namespace sbk::sweep
