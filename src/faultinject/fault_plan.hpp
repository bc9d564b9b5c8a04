// Deterministic fault schedules for the recovery pipeline (robustness
// harness). A FaultPlan is everything the chaos injector will do to one
// simulation, fixed up front from (fabric shape, config, seed): which
// switches and links fail and when, which initial spares are dead on
// arrival, and when controller-cluster members crash and come back. The
// probabilities the control-channel fault hooks roll against are fixed
// in the ChaosInjector.
//
// Determinism contract: FaultPlan::generate is a pure function of
// (fabric shape, config, seed) — two fabrics with the same parameters
// yield bit-identical plans — and the injector derives its hook RNG
// streams from the same seed, so an entire chaos scenario replays
// exactly from its seed alone.
//
// Schedule shape: all injected failures start inside the *fault window*
// [0, kInjectionWindow * horizon); the remaining tail of the run is
// fault-free settle time in which lost reports are re-sent, parked
// recoveries are retried against a clean command channel, and repairs
// drain. End-of-run invariants (ChaosInjector::verify) are only
// meaningful because of this quiescent tail.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/ids.hpp"
#include "sharebackup/device.hpp"
#include "sharebackup/fabric.hpp"
#include "util/time.hpp"

namespace sbk::faultinject {

/// Scripted controller-cluster failure shapes for the replicated
/// service's chaos soak. Each scenario is anchored to the plan's first
/// correlated burst (or the middle of the fault window when the plan
/// has no bursts) so the crash lands where the service is busiest —
/// mid-batch, between a burst's first report and its retry sweeps.
enum class ClusterScenario : std::uint8_t {
  /// Legacy behavior: at most one probabilistic member crash
  /// (controller_crash_prob).
  kNone,
  /// Kill the acting primary once; repair it controller_repair_delay
  /// later. Exercises detection, election, handoff, buffer replay.
  kPrimaryCrash,
  /// Kill the acting primary, then kill the imminent winner while the
  /// resulting election is still in flight (inside the election bound).
  kCrashDuringElection,
  /// Kill every member back-to-back (headless with nobody to elect),
  /// then revive the whole cluster controller_repair_delay later.
  kTotalDeath,
};

/// ControllerCrashEvent::member sentinel: target whichever member
/// currently acts (the stream builder maps it to
/// service::kClusterPrimary — crash the primary / revive all).
inline constexpr std::size_t kPrimaryMember = ~static_cast<std::size_t>(0);

/// The settable shape of a fault schedule. The channel fault
/// probabilities and the DOA-spare fraction are fixed in the injector
/// and the generator; the election bound the scripted scenarios aim at
/// is ClusterConfig{}.election_bound().
struct FaultPlanConfig {
  /// Simulated horizon; failures are injected in the leading
  /// kInjectionWindow fraction and the rest is settle time.
  Seconds horizon = 2.0;
  static constexpr double kInjectionWindow = 0.6;

  /// Independent switch (node) failures.
  int switch_failures = 3;
  /// Independent link failures (switch-switch links only; host links are
  /// exercised by the host-policy unit tests, not the chaos soak).
  int link_failures = 3;
  /// Correlated bursts: each burst fails `burst_size` distinct links
  /// sharing one circuit switch within a microsecond of each other —
  /// exactly the localized pattern the §5.1 watchdog exists for.
  int bursts = 1;
  int burst_size = 3;

  // --- controller cluster -------------------------------------------------
  /// Probability the plan includes a controller-member crash (paired
  /// with a repair `controller_repair_delay` later). Only consulted for
  /// ClusterScenario::kNone; scripted scenarios generate their own
  /// crash schedule.
  double controller_crash_prob = 0.5;
  Seconds controller_repair_delay = 0.2;
  /// Scripted cluster-failure shape (see ClusterScenario).
  ClusterScenario cluster_scenario = ClusterScenario::kNone;
  /// Member count of the cluster the stream will be replayed against
  /// (explicit member indices are reduced modulo this).
  std::size_t cluster_members = 3;

  // --- background services ------------------------------------------------
  /// Repair-crew cadence: confirmed-faulty / out-of-service devices are
  /// healed and returned to their pools this often (the ChaosInjector's
  /// repair tick and the report stream's kRepairAll).
  static constexpr Seconds kRepairInterval = 0.05;
  /// Operator cadence: a tripped watchdog is serviced (acknowledged)
  /// this often, releasing parked recoveries (the ChaosInjector's
  /// operator tick and the report stream's kAckWatchdog).
  static constexpr Seconds kOperatorInterval = 0.05;
};

struct SwitchFailureEvent {
  Seconds at = 0.0;
  net::NodeId node{0};
};

struct LinkFailureEvent {
  Seconds at = 0.0;
  net::LinkId link{0};
  /// Which endpoint's interface is actually broken (0 = link().a side,
  /// 1 = link().b side): offline diagnosis should confirm this device
  /// faulty and exonerate the other.
  int bad_side = 0;
  /// True when this event belongs to a correlated burst.
  bool burst = false;
};

struct ControllerCrashEvent {
  Seconds at = 0.0;
  std::size_t member = 0;
  Seconds repair_at = 0.0;
};

/// A fully materialized fault schedule (see file comment).
struct FaultPlan {
  std::uint64_t seed = 0;
  FaultPlanConfig config;
  /// End of the fault window: hooks behave cleanly at or after this time.
  Seconds settle_at = 0.0;
  std::vector<SwitchFailureEvent> switch_failures;
  std::vector<LinkFailureEvent> link_failures;  ///< bursts included, sorted
  std::vector<ControllerCrashEvent> controller_crashes;
  std::vector<sharebackup::DeviceUid> doa_spares;

  /// Materializes a plan for `fabric` from `config` and `seed`
  /// (deterministic; see contract above).
  [[nodiscard]] static FaultPlan generate(const sharebackup::Fabric& fabric,
                                          const FaultPlanConfig& config,
                                          std::uint64_t seed);

  /// One-line human summary, e.g. for soak logs.
  [[nodiscard]] std::string describe() const;
};

}  // namespace sbk::faultinject
