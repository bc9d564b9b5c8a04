// Chaos soak harness: many seeded fault schedules, each run end-to-end
// through a fresh fabric + control plane on its own event queue, with
// the ChaosInjector's robustness invariants checked at the end of every
// run. Built on SweepRunner, so a soak parallelizes across cores and is
// bit-identical at any thread count (the determinism contract of
// sweep::derive_seed).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "faultinject/chaos_injector.hpp"
#include "faultinject/fault_plan.hpp"
#include "sweep/sweep.hpp"
#include "util/time.hpp"

namespace sbk::faultinject {

struct ChaosSoakConfig {
  std::size_t scenarios = 200;
  std::uint64_t master_seed = 1;
  /// Worker threads (SweepConfig semantics: 0 = auto).
  std::size_t threads = 0;

  /// Fabric under test.
  int k = 4;
  int backups_per_group = 1;
  /// Background diagnosis is scheduled this soon after a report: small
  /// enough that every scenario drains its diagnosis queue in-horizon,
  /// but past the worst-case *modeled* control-path latency (a dual
  /// failover spending every command retry charges ~14ms of penalty to
  /// its command span, and diagnosis spans must start after it for the
  /// timeline-monotonicity invariant to be meaningful).
  Seconds diagnosis_delay = milliseconds(25);
  /// Detector re-report interval: the recovery mechanism for reports the
  /// chaos plan's report channel loses, so it must stay positive.
  Seconds report_retry_interval = milliseconds(5);

  /// Fault-schedule shape, shared by every scenario (the per-scenario
  /// seed drives everything else).
  FaultPlanConfig plan;

  /// Post-run reachability race: after the event queue drains, this many
  /// rng-drawn host pairs are routed over the fabric's end-state network
  /// with each non-ShareBackup protection strategy (ECMP + global
  /// reroute, SPIDER-protect, precomputed backup rules). Any non-empty
  /// path that is invalid or dead is a soak violation; empty paths count
  /// into the per-strategy unreachable tallies. 0 disables the race.
  std::size_t reachability_probes = 32;

  // Whether a soak traces, samples telemetry or judges SLOs is decided
  // by which sinks the caller hands run_chaos_soak, not by config.
};

struct ChaosScenarioResult {
  std::uint64_t seed = 0;
  std::vector<std::string> violations;
  /// Injection + recovery head-line numbers for the soak report.
  std::size_t failures_injected = 0;
  std::size_t failovers = 0;
  std::size_t retries = 0;
  std::size_t degraded_reroutes = 0;
  std::size_t requeued = 0;
  std::size_t watchdog_trips = 0;
  std::size_t reports_lost = 0;
  std::size_t reports_buffered = 0;
  /// Post-recovery reachability race (see
  /// ChaosSoakConfig::reachability_probes). `probes_routed` is the pair
  /// count actually raced; the unreachable tallies say how many of those
  /// pairs each strategy could not route on the end-state network.
  std::size_t probes_routed = 0;
  std::size_t unreachable_global_reroute = 0;
  std::size_t unreachable_spider = 0;
  std::size_t unreachable_backup_rules = 0;
  /// With an SLO monitor only: burn-rate alerts raised/cleared by this
  /// scenario's recovery-latency objective.
  std::size_t slo_breaches = 0;
  std::size_t slo_clears = 0;
};

struct ChaosSoakReport {
  std::vector<ChaosScenarioResult> scenarios;

  [[nodiscard]] std::size_t total_violations() const;
  [[nodiscard]] bool clean() const { return total_violations() == 0; }
  /// Multi-line human summary (aggregates + every violation with its
  /// scenario seed).
  [[nodiscard]] std::string summary() const;
};

/// Runs one chaos scenario (exposed for tests and debugging: a failing
/// seed from a soak reproduces exactly through this call). Every
/// observability pointer is optional; with all of them null the run
/// touches no observability code.
///   * `recorder` is wired through the event queue, control plane, and
///     fabric, and receives the RecoveryTracer's timeline as "recovery"
///     spans (plus SLO breach instants when `slo` is set too).
///   * `sampler` gets the standard chaos probes (queue depth,
///     backup-pool occupancy, live-link fraction, controller backlog,
///     report-channel buffering), driven by pre-scheduled queue events
///     on the sampler's own cadence.
///   * `slo` (from make_chaos_slo, directly or via clone_config) is fed
///     every closed incident's recovery latency in recovery order and
///     finished at the plan horizon.
///   * `health` (only with `slo`) gets one end-state snapshot: spare
///     pool, live-link fraction, recovery-latency histogram, objective
///     attainment.
[[nodiscard]] ChaosScenarioResult run_chaos_scenario(
    const ChaosSoakConfig& config, const sweep::ScenarioSpec& spec,
    obs::FlightRecorder* recorder = nullptr,
    obs::TelemetrySampler* sampler = nullptr,
    obs::slo::SloMonitor* slo = nullptr,
    obs::slo::HealthLog* health = nullptr);

/// Runs the full soak on SweepRunner::run_observed: each scenario gets
/// private instances of the sinks set in `sinks` (recorder and
/// telemetry, SLO monitor and health log, in any combination), merged
/// in scenario order with the scenario index as the track, so every
/// merged output is independent of the thread count (wall-clock span
/// durations aside). With no sinks this is the plain soak. `sinks.slo`
/// should be make_chaos_slo().
[[nodiscard]] ChaosSoakReport run_chaos_soak(
    const ChaosSoakConfig& config, const sweep::SweepSinks& sinks = {});

/// Prototype SloMonitor for a chaos soak: one "recovery_latency"
/// objective (index 0: a 50 ms bound at a 5% budget), whose
/// per-scenario clones judge each closed incident's recovered_at -
/// injected_at against the bound.
[[nodiscard]] obs::slo::SloMonitor make_chaos_slo();

}  // namespace sbk::faultinject
