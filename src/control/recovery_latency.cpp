#include "control/recovery_latency.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace sbk::control {

namespace {
/// Local rerouting decision on the switch data plane.
constexpr Seconds kLocalDecision = microseconds(10);
}  // namespace

LatencyBreakdown sharebackup_latency(const LatencyModelParams& p,
                                     sharebackup::CircuitTechnology tech) {
  LatencyBreakdown b;
  b.scheme = tech == sharebackup::CircuitTechnology::kElectricalCrosspoint
                 ? "sharebackup-crosspoint"
                 : "sharebackup-mems";
  b.detection = p.detection();
  // Report to the controller, then command to the circuit switches.
  b.notification = 2.0 * p.control_channel_one_way;
  b.decision = p.controller_processing;
  b.reconfiguration = sharebackup::reconfiguration_latency(tech);
  return b;
}

LatencyBreakdown local_reroute_latency(const LatencyModelParams& p,
                                       const std::string& scheme) {
  LatencyBreakdown b;
  b.scheme = scheme;
  b.detection = p.detection();
  b.notification = 0.0;  // the adjacent switch acts on its own
  b.decision = kLocalDecision;
  b.reconfiguration = LatencyModelParams::kSdnRuleUpdate;  // >= 1 rule
  return b;
}

LatencyBreakdown global_reroute_latency(const LatencyModelParams& p,
                                        int rule_updates) {
  SBK_EXPECTS_MSG(rule_updates >= 0,
                  "negative rule-update counts are meaningless");
  // Recovering by rerouting always rewrites at least one forwarding rule;
  // a 0 request would otherwise credit the scheme with a reconfiguration
  // *cheaper* than a single SDN update (negative per-extra-switch term).
  rule_updates = std::max(rule_updates, 1);
  LatencyBreakdown b;
  b.scheme = "fat-tree-global";
  b.detection = p.detection();
  b.notification = 2.0 * p.control_channel_one_way;
  b.decision = p.controller_processing;
  // Upstream repair: rules must change at several switches; installs
  // proceed in parallel across switches but the controller issues them
  // sequentially per switch — we charge one SDN update end-to-end plus a
  // per-extra-switch issuing overhead.
  b.reconfiguration = LatencyModelParams::kSdnRuleUpdate +
                      static_cast<double>(rule_updates - 1) *
                          (LatencyModelParams::kSdnRuleUpdate * 0.1);
  return b;
}

LatencyBreakdown spider_protect_latency(const LatencyModelParams& p) {
  LatencyBreakdown b;
  b.scheme = "spider-protect";
  b.detection = p.detection();
  b.notification = 0.0;       // stateful failover at the detecting switch
  b.decision = kLocalDecision;
  b.reconfiguration = 0.0;    // detour rules pre-installed: 0 rule updates
  return b;
}

LatencyBreakdown backup_rules_latency(const LatencyModelParams& p,
                                      double fallback_fraction,
                                      int fallback_rule_updates) {
  SBK_EXPECTS_MSG(fallback_fraction >= 0.0 && fallback_fraction <= 1.0,
                  "fallback_fraction is a probability");
  LatencyBreakdown fast;
  fast.scheme = "backup-rules";
  fast.detection = p.detection();
  fast.notification = 0.0;    // backup next-hop already in the table
  fast.decision = kLocalDecision;
  fast.reconfiguration = 0.0;
  if (fallback_fraction == 0.0) return fast;
  const LatencyBreakdown slow =
      global_reroute_latency(p, fallback_rule_updates);
  const double keep = 1.0 - fallback_fraction;
  LatencyBreakdown b;
  b.scheme = "backup-rules";
  b.detection = fast.detection;  // both paths pay the same detection
  b.notification = fallback_fraction * slow.notification;
  b.decision = keep * fast.decision + fallback_fraction * slow.decision;
  b.reconfiguration = fallback_fraction * slow.reconfiguration;
  return b;
}

std::vector<LatencyBreakdown> latency_comparison(
    const LatencyModelParams& p) {
  return {
      sharebackup_latency(p,
                          sharebackup::CircuitTechnology::kElectricalCrosspoint),
      sharebackup_latency(p, sharebackup::CircuitTechnology::kOpticalMems2D),
      local_reroute_latency(p, "f10-local"),
      local_reroute_latency(p, "aspen-local"),
      global_reroute_latency(p, /*rule_updates=*/4),
      spider_protect_latency(p),
      backup_rules_latency(p),
  };
}

}  // namespace sbk::control
