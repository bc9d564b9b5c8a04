// Recovery-latency component model (§5.3). The paper argues ShareBackup
// recovers as fast as the most responsive local-rerouting schemes (F10,
// Aspen Tree): both pay the same failure-detection time; after that,
// rerouting needs at least one forwarding-rule update (~1 ms via SDN,
// He et al. SOSR'15), while ShareBackup needs controller round-trips
// (sub-ms with a kernel-module controller) plus a circuit reset (70 ns
// crosspoint / 40 us 2D-MEMS).
#pragma once

#include <string>
#include <vector>

#include "sharebackup/circuit_switch.hpp"
#include "util/time.hpp"

namespace sbk::control {

struct LatencyBreakdown {
  std::string scheme;
  Seconds detection = 0.0;      ///< probe misses until declared
  Seconds notification = 0.0;   ///< switch -> controller (0 for local)
  Seconds decision = 0.0;       ///< controller / switch-local processing
  Seconds reconfiguration = 0.0;///< circuit reset or rule installation
  [[nodiscard]] Seconds total() const noexcept {
    return detection + notification + decision + reconfiguration;
  }
};

/// The §5.3 timing model and the one home of the control stack's timing:
/// a ControlPlane's FailureDetector probes on it, its Controller charges
/// its control path from it, and the functions below derive from it.
struct LatencyModelParams {
  /// Keep-alive / link-probe interval (same as F10 and Aspen Tree, §5.3).
  Seconds probe_interval = milliseconds(1);
  /// Consecutive missed probes before a failure is declared.
  int miss_threshold = 3;
  /// One-way control-channel hop, paid twice: the switch->controller
  /// report and the controller->circuit-switch command (sub-ms, §5.3).
  Seconds control_channel_one_way = microseconds(100);
  /// Controller decision time per failure event.
  Seconds controller_processing = microseconds(50);
  /// SDN forwarding-rule modification latency (~1 ms, [17]).
  static constexpr Seconds kSdnRuleUpdate = milliseconds(1);

  /// Worst-case detection: the element dies right after a probe, and
  /// miss_threshold consecutive probes must be missed.
  [[nodiscard]] Seconds detection() const noexcept {
    return static_cast<double>(miss_threshold) * probe_interval;
  }
};

/// ShareBackup end-to-end recovery for the given circuit technology.
[[nodiscard]] LatencyBreakdown sharebackup_latency(
    const LatencyModelParams& p, sharebackup::CircuitTechnology tech);

/// F10 / Aspen-style local rerouting: detection + local decision + one
/// forwarding-rule change.
[[nodiscard]] LatencyBreakdown local_reroute_latency(
    const LatencyModelParams& p, const std::string& scheme = "f10-local");

/// Fat-tree global rerouting: detection + failure propagation to the
/// controller + rule updates at `rule_updates` upstream switches
/// (sequential pipeline bound by the slowest path). `rule_updates` must
/// be non-negative and is clamped to at least one rule change — any
/// reroute rewrites at least one forwarding entry.
[[nodiscard]] LatencyBreakdown global_reroute_latency(
    const LatencyModelParams& p, int rule_updates);

/// SPIDER-style stateful data-plane failover: detours are pre-installed,
/// so recovery is detection plus one local state-machine transition —
/// zero controller involvement and rule_updates = 0 (no forwarding-rule
/// write happens at failure time, the defining difference from
/// local_reroute_latency).
[[nodiscard]] LatencyBreakdown spider_protect_latency(
    const LatencyModelParams& p);

/// Precomputed per-destination backup next-hops: the fast path equals
/// SPIDER's (pre-installed, local, no rule write). `fallback_fraction`
/// in [0, 1] is the measured share of affected flows whose primary AND
/// backup were both dead — those pay the full global-reroute cycle with
/// `fallback_rule_updates` rule changes. The returned breakdown is the
/// expectation over the two paths, so a soak-measured fallback rate
/// plugs straight in.
[[nodiscard]] LatencyBreakdown backup_rules_latency(
    const LatencyModelParams& p, double fallback_fraction = 0.0,
    int fallback_rule_updates = 4);

/// All schemes side by side (the §5.3 comparison).
[[nodiscard]] std::vector<LatencyBreakdown> latency_comparison(
    const LatencyModelParams& p);

}  // namespace sbk::control
