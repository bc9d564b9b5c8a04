#include "faultinject/fault_plan.hpp"

#include <algorithm>
#include <sstream>

#include "control/controller_cluster.hpp"
#include "net/network.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace sbk::faultinject {

namespace {

using sharebackup::DeviceUid;
using sharebackup::Fabric;

/// Fraction of the initial spare pool that is dead on arrival (one
/// interface broken): failing over onto one forces a DOA cascade.
constexpr double kDoaSpareFraction = 0.25;

/// Links joining two packet switches (host-edge links are out of scope
/// for the chaos plan; the host policy has its own unit tests).
std::vector<net::LinkId> switch_links(const Fabric& fabric) {
  const net::Network& net = fabric.network();
  std::vector<net::LinkId> out;
  for (std::size_t i = 0; i < net.link_count(); ++i) {
    net::LinkId id(static_cast<net::LinkId::value_type>(i));
    const net::Link& l = net.link(id);
    if (net::is_switch(net.node(l.a).kind) &&
        net::is_switch(net.node(l.b).kind)) {
      out.push_back(id);
    }
  }
  return out;
}

}  // namespace

FaultPlan FaultPlan::generate(const Fabric& fabric,
                              const FaultPlanConfig& config,
                              std::uint64_t seed) {
  SBK_EXPECTS(config.horizon > 0.0);
  FaultPlan plan;
  plan.seed = seed;
  plan.config = config;
  plan.settle_at = FaultPlanConfig::kInjectionWindow * config.horizon;

  Rng rng(seed);
  const Seconds window = plan.settle_at;

  // Independent switch failures: distinct victims, staggered start times
  // (never at t=0 so detectors are already armed).
  std::vector<net::NodeId> switches = fabric.fat_tree().all_switches();
  std::size_t n_switch = std::min<std::size_t>(
      static_cast<std::size_t>(std::max(config.switch_failures, 0)),
      switches.size());
  for (std::size_t idx : rng.sample_without_replacement(switches.size(),
                                                        n_switch)) {
    SwitchFailureEvent ev;
    ev.at = rng.uniform_real(0.02 * window, window);
    ev.node = switches[idx];
    plan.switch_failures.push_back(ev);
  }
  std::sort(plan.switch_failures.begin(), plan.switch_failures.end(),
            [](const auto& a, const auto& b) { return a.at < b.at; });

  // Independent link failures.
  std::vector<net::LinkId> links = switch_links(fabric);
  std::size_t n_link = std::min<std::size_t>(
      static_cast<std::size_t>(std::max(config.link_failures, 0)),
      links.size());
  for (std::size_t idx :
       rng.sample_without_replacement(links.size(), n_link)) {
    LinkFailureEvent ev;
    ev.at = rng.uniform_real(0.02 * window, window);
    ev.link = links[idx];
    ev.bad_side = rng.bernoulli(0.5) ? 1 : 0;
    plan.link_failures.push_back(ev);
  }

  // Correlated bursts: pick a circuit switch (via a random seed link) and
  // fail several distinct links it carries within a microsecond — the
  // localized pattern the watchdog (§5.1) is designed to catch.
  for (int b = 0; b < config.bursts && !links.empty(); ++b) {
    net::LinkId pivot = links[rng.uniform_index(links.size())];
    std::size_t cs = fabric.cs_of_link(pivot);
    std::vector<net::LinkId> same_cs;
    for (net::LinkId l : links) {
      if (fabric.cs_of_link(l) == cs) same_cs.push_back(l);
    }
    std::size_t take = std::min<std::size_t>(
        static_cast<std::size_t>(std::max(config.burst_size, 0)),
        same_cs.size());
    Seconds at = rng.uniform_real(0.02 * window, window);
    std::size_t i = 0;
    for (std::size_t idx :
         rng.sample_without_replacement(same_cs.size(), take)) {
      LinkFailureEvent ev;
      ev.at = at + static_cast<double>(i++) * 1e-6;
      ev.link = same_cs[idx];
      ev.bad_side = rng.bernoulli(0.5) ? 1 : 0;
      ev.burst = true;
      plan.link_failures.push_back(ev);
    }
  }
  std::sort(plan.link_failures.begin(), plan.link_failures.end(),
            [](const auto& a, const auto& b) { return a.at < b.at; });

  // Dead-on-arrival spares: break one interface on a sampled fraction of
  // the initial pool. The controller must detect this post-failover and
  // cascade to the next spare.
  std::vector<DeviceUid> spares = fabric.all_spares();
  std::size_t n_doa = static_cast<std::size_t>(
      kDoaSpareFraction * static_cast<double>(spares.size()));
  for (std::size_t idx :
       rng.sample_without_replacement(spares.size(), n_doa)) {
    plan.doa_spares.push_back(spares[idx]);
  }
  std::sort(plan.doa_spares.begin(), plan.doa_spares.end());

  // Controller-cluster failure schedule. Scripted scenarios anchor to
  // the first correlated burst so the crash lands mid-batch, between
  // the burst's first reports and its retry sweeps; a plan without
  // bursts anchors to the middle of the fault window.
  Seconds anchor = 0.5 * window;
  for (const LinkFailureEvent& ev : plan.link_failures) {
    if (ev.burst) {
      anchor = ev.at;
      break;
    }
  }
  switch (config.cluster_scenario) {
    case ClusterScenario::kNone:
      // Legacy: at most one probabilistic member crash.
      if (rng.bernoulli(config.controller_crash_prob)) {
        ControllerCrashEvent ev;
        ev.at = rng.uniform_real(0.05 * window, window);
        ev.member = rng.uniform_index(16);  // mod member count at injection
        ev.repair_at = ev.at + config.controller_repair_delay;
        plan.controller_crashes.push_back(ev);
      }
      break;
    case ClusterScenario::kPrimaryCrash: {
      ControllerCrashEvent ev;
      ev.at = anchor;
      ev.member = kPrimaryMember;
      ev.repair_at = ev.at + config.controller_repair_delay;
      plan.controller_crashes.push_back(ev);
      break;
    }
    case ClusterScenario::kCrashDuringElection: {
      ControllerCrashEvent first;
      first.at = anchor;
      first.member = kPrimaryMember;
      first.repair_at = first.at + config.controller_repair_delay;
      plan.controller_crashes.push_back(first);
      // The second kill targets the acting member again — with no
      // primary seated that resolves to the imminent election winner —
      // and lands inside the detection+election window of the first
      // (the default cluster's bound, in plan time).
      ControllerCrashEvent second;
      second.at = anchor + 0.6 * control::ClusterConfig{}.election_bound();
      second.member = kPrimaryMember;
      // Both casualties come back together, unless a repair delay
      // shorter than the election bound puts that before this crash;
      // then this casualty gets its own delay.
      second.repair_at = first.repair_at >= second.at
                             ? first.repair_at
                             : second.at + config.controller_repair_delay;
      plan.controller_crashes.push_back(second);
      break;
    }
    case ClusterScenario::kTotalDeath: {
      const std::size_t members = std::max<std::size_t>(
          config.cluster_members, 1);
      for (std::size_t i = 0; i < members; ++i) {
        // Each kill resolves to the currently highest live member, so
        // back-to-back kills walk the whole cluster into the ground;
        // the repair of a kPrimaryMember event revives every casualty.
        ControllerCrashEvent ev;
        ev.at = anchor + static_cast<double>(i) * 1e-6;
        ev.member = kPrimaryMember;
        ev.repair_at = anchor + config.controller_repair_delay;
        plan.controller_crashes.push_back(ev);
      }
      break;
    }
  }

  for (const ControllerCrashEvent& ev : plan.controller_crashes) {
    SBK_EXPECTS_MSG(ev.repair_at >= ev.at, "repair scheduled before crash");
  }
  return plan;
}

std::string FaultPlan::describe() const {
  std::ostringstream os;
  std::size_t burst_links = 0;
  for (const LinkFailureEvent& ev : link_failures) {
    if (ev.burst) ++burst_links;
  }
  const char* scenario = "none";
  switch (config.cluster_scenario) {
    case ClusterScenario::kNone: break;
    case ClusterScenario::kPrimaryCrash: scenario = "primary-crash"; break;
    case ClusterScenario::kCrashDuringElection:
      scenario = "crash-during-election";
      break;
    case ClusterScenario::kTotalDeath: scenario = "total-death"; break;
  }
  os << "seed=" << seed << " switch_failures=" << switch_failures.size()
     << " link_failures=" << link_failures.size() << " (burst "
     << burst_links << ") doa_spares=" << doa_spares.size()
     << " controller_crashes=" << controller_crashes.size() << " (scenario "
     << scenario << ") settle_at=" << settle_at;
  return os.str();
}

}  // namespace sbk::faultinject
