// End-to-end integration tests: coflow workloads driven through the fluid
// simulator on the compared architectures, exercising the paper's core
// claims — rerouting loses bandwidth and inflates CCT; ShareBackup's
// hardware replacement does not (Table 3) — plus the full
// detect->recover->diagnose pipeline against the fabric.
#include <gtest/gtest.h>

#include <memory>

#include "control/controller.hpp"
#include "control/failure_detector.hpp"
#include "net/algo.hpp"
#include "routing/ecmp.hpp"
#include "routing/f10.hpp"
#include "routing/global_reroute.hpp"
#include "sharebackup/fabric.hpp"
#include "sim/fluid_sim.hpp"
#include "util/stats.hpp"
#include "workload/coflow_gen.hpp"

namespace sbk {
namespace {

using control::Controller;
using control::ControllerConfig;
using net::NodeId;
using sharebackup::Fabric;
using sharebackup::FabricParams;
using sim::FlowOutcome;
using sim::FlowSpec;
using sim::FluidSimulator;
using sim::SimConfig;
using topo::FatTree;
using topo::FatTreeParams;
using topo::Layer;
using topo::SwitchPosition;
using topo::Wiring;

/// Rack-level fat-tree (1 aggregate host per edge), 4:1 oversubscribed to
/// keep the fabric loaded and simulation small.
FatTreeParams rack_params(int k, Wiring wiring = Wiring::kPlain) {
  FatTreeParams p{.k = k, .wiring = wiring};
  p.hosts_per_edge = 1;
  p.host_link_capacity = 4.0 * (k / 2);
  return p;
}

std::vector<FlowSpec> small_workload(const FatTree& ft, std::uint64_t seed,
                                     std::size_t coflows = 40) {
  workload::CoflowWorkloadParams wp;
  wp.racks = ft.host_count();
  wp.coflows = coflows;
  wp.duration = 60.0;
  wp.reducer_bytes_cap = 2e9;
  Rng rng(seed);
  auto trace = workload::generate_coflows(wp, rng);
  return workload::expand_to_flows(ft, trace);
}

double total_cct(const std::vector<sim::FlowResult>& results) {
  double total = 0.0;
  for (const auto& c : sim::aggregate_coflows(results)) {
    EXPECT_TRUE(c.all_completed);
    total += c.cct();
  }
  return total;
}

TEST(Integration, WorkloadCompletesOnHealthyFatTree) {
  FatTree ft(rack_params(8));
  routing::EcmpRouter router(ft, 1);
  FluidSimulator sim(ft.network(), router, SimConfig{});
  auto flows = small_workload(ft, 42);
  ASSERT_GT(flows.size(), 100u);
  sim.add_flows(flows);
  auto results = sim.run();
  for (const auto& r : results) {
    EXPECT_EQ(r.outcome, FlowOutcome::kCompleted);
    EXPECT_GE(r.finish, r.spec.start);
  }
}

/// A hotspot shuffle that saturates pod 0's uplinks: every pod-0 rack
/// sends one large flow to a rack in each of 4 remote pods (16 flows,
/// matching pod 0's total up-capacity). Losing one aggregation switch
/// removes 1/4 of that capacity, so rerouting must inflate CCT by ~4/3.
std::vector<FlowSpec> hotspot_workload(const FatTree& ft) {
  std::vector<FlowSpec> flows;
  std::uint64_t id = 0;
  const int half = ft.half_k();
  for (int src = 0; src < half; ++src) {
    for (int p = 1; p <= 4; ++p) {
      FlowSpec f;
      f.id = id++;
      f.src = ft.host(src);                 // pod 0 racks
      f.dst = ft.host(p * half + (src + p) % half);
      f.bytes = 1e9;
      f.start = 0.0;
      f.coflow = static_cast<sim::CoflowId>(src);
      flows.push_back(f);
    }
  }
  return flows;
}

TEST(Integration, FailureWithReroutingInflatesCct) {
  // Same hotspot shuffle, three runs: healthy; with a pre-existing agg
  // failure and global-optimal rerouting; and the failure with
  // ShareBackup (which restores the topology before traffic starts).
  // Paper claim: rerouting costs CCT; replacement does not.
  double healthy_cct = 0.0;
  {
    FatTree ft(rack_params(8));
    routing::MinCongestionRouter router(ft, 3);
    FluidSimulator sim(ft.network(), router, SimConfig{});
    sim.add_flows(hotspot_workload(ft));
    healthy_cct = total_cct(sim.run());
  }

  double degraded_cct = 0.0;
  {
    FatTree ft(rack_params(8));
    routing::MinCongestionRouter router(ft, 3);
    ft.network().fail_node(ft.agg(0, 0));  // final state after failure
    FluidSimulator sim(ft.network(), router, SimConfig{});
    sim.add_flows(hotspot_workload(ft));
    degraded_cct = total_cct(sim.run());
  }

  double sharebackup_cct = 0.0;
  {
    FabricParams fabp;
    fabp.fat_tree = rack_params(8);
    Fabric fabric(fabp);
    Controller ctrl(fabric, ControllerConfig{});
    // The failure happened and was recovered before the trace window (a
    // few ms of recovery against a 60 s trace).
    SwitchPosition pos{Layer::kAgg, 0, 0};
    fabric.network().fail_node(fabric.node_at(pos));
    ASSERT_TRUE(ctrl.on_switch_failure(pos).recovered);

    routing::MinCongestionRouter router(fabric.fat_tree(), 3);
    FluidSimulator sim(fabric.network(), router, SimConfig{});
    sim.add_flows(hotspot_workload(fabric.fat_tree()));
    sharebackup_cct = total_cct(sim.run());
  }

  // Bandwidth loss shows up as aggregate CCT inflation (~4/3 here)...
  EXPECT_GT(degraded_cct, healthy_cct * 1.1);
  // ...while ShareBackup is bit-for-bit the healthy network.
  EXPECT_NEAR(sharebackup_cct, healthy_cct, healthy_cct * 1e-9);
}

TEST(Integration, MidTraceFailureStallsOnlyBrieflyUnderShareBackup) {
  FabricParams fabp;
  fabp.fat_tree = rack_params(8);
  Fabric fabric(fabp);
  Controller ctrl(fabric, ControllerConfig{});

  routing::EcmpRouter router(fabric.fat_tree(), 5);
  SimConfig cfg;
  cfg.reroute_on_path_failure = false;  // ShareBackup never re-routes
  FluidSimulator sim(fabric.network(), router, cfg);
  auto flows = small_workload(fabric.fat_tree(), 11);
  sim.add_flows(flows);

  // Mid-trace: an edge switch dies; recovery completes one control-path
  // latency later (~ms), restoring every affected path unchanged.
  SwitchPosition pos{Layer::kEdge, 2, 1};
  NodeId victim = fabric.node_at(pos);
  Seconds recovery_delay = ctrl.end_to_end_recovery_latency();
  sim.at(20.0, [victim](net::Network& net) { net.fail_node(victim); });
  sim.at(20.0 + recovery_delay, [&](net::Network&) {
    auto out = ctrl.on_switch_failure(pos);
    ASSERT_TRUE(out.recovered);
  });

  auto results = sim.run();
  for (const auto& r : results) {
    EXPECT_EQ(r.outcome, FlowOutcome::kCompleted) << "flow " << r.spec.id;
    EXPECT_EQ(r.reroutes, 0u);  // paths pinned throughout
  }
}

TEST(Integration, Table3NoPathDilationForShareBackupButF10Dilates) {
  // F10 under a failure uses longer paths (path dilation); ShareBackup
  // restores the topology so hop counts are unchanged.
  FatTree ab(rack_params(8, Wiring::kAb));
  routing::F10Router f10(ab, 2);
  ab.network().fail_node(ab.agg(1, 1));
  std::size_t dilated = 0;
  std::size_t total = 0;
  for (std::uint64_t f = 0; f < 64; ++f) {
    net::Path p = f10.route(ab.network(), ab.host(0), ab.host(4 + f % 4),
                            f, nullptr);
    if (p.empty()) continue;
    ++total;
    if (p.hops() > 6) ++dilated;
  }
  ASSERT_GT(total, 0u);
  EXPECT_GT(dilated, 0u);

  // ShareBackup: after recovery every path has the healthy hop count.
  FabricParams fabp;
  fabp.fat_tree = rack_params(8);
  Fabric fabric(fabp);
  Controller ctrl(fabric, ControllerConfig{});
  SwitchPosition pos{Layer::kAgg, 1, 1};
  fabric.network().fail_node(fabric.node_at(pos));
  ASSERT_TRUE(ctrl.on_switch_failure(pos).recovered);
  routing::EcmpRouter ecmp(fabric.fat_tree(), 2);
  for (std::uint64_t f = 0; f < 64; ++f) {
    net::Path p = ecmp.route(fabric.network(), fabric.fat_tree().host(0),
                             fabric.fat_tree().host(4 + f % 4), f, nullptr);
    ASSERT_FALSE(p.empty());
    EXPECT_EQ(p.hops(), 6u);
  }
}

TEST(Integration, Table3BandwidthLossMeasuredByAllToAllThroughput) {
  // Aggregate max-min throughput of an all-to-all: fat-tree loses
  // bandwidth under a failure; ShareBackup does not.
  auto all_to_all_throughput = [](const FatTree& ft,
                                  routing::Router& router) {
    std::vector<sim::Demand> demands;
    std::uint64_t id = 0;
    for (int i = 0; i < ft.host_count(); ++i) {
      for (int j = 0; j < ft.host_count(); ++j) {
        if (i == j) continue;
        net::Path p = router.route(ft.network(), ft.host(i), ft.host(j),
                                   id++, nullptr);
        if (p.empty()) continue;
        demands.push_back(sim::Demand{p.directed_links(ft.network())});
      }
    }
    auto rates = sim::max_min_rates(ft.network(), demands);
    double total = 0.0;
    for (double r : rates) total += r;
    return total;
  };

  FatTree healthy(rack_params(4));
  routing::EcmpRouter r1(healthy, 4);
  double base = all_to_all_throughput(healthy, r1);

  FatTree failed(rack_params(4));
  routing::MinCongestionRouter r2(failed, 4);
  failed.network().fail_node(failed.agg(0, 0));
  double degraded = all_to_all_throughput(failed, r2);
  EXPECT_LT(degraded, base * 0.995);

  FabricParams fabp;
  fabp.fat_tree = rack_params(4);
  Fabric fabric(fabp);
  Controller ctrl(fabric, ControllerConfig{});
  SwitchPosition pos{Layer::kAgg, 0, 0};
  fabric.network().fail_node(fabric.node_at(pos));
  ASSERT_TRUE(ctrl.on_switch_failure(pos).recovered);
  routing::EcmpRouter r3(fabric.fat_tree(), 4);
  double recovered = all_to_all_throughput(fabric.fat_tree(), r3);
  EXPECT_NEAR(recovered, base, base * 1e-9);
}

TEST(Integration, DetectRecoverDiagnoseFullPipeline) {
  // Keep-alive detection -> controller failover -> link probe detection
  // -> dual replacement -> offline diagnosis -> pool replenished.
  FabricParams fabp;
  fabp.fat_tree.k = 6;
  fabp.backups_per_group = 1;
  Fabric fabric(fabp);
  Controller ctrl(fabric, ControllerConfig{});
  sim::EventQueue q;
  control::FailureDetector det(q, fabric.network(), ctrl.timing());

  det.on_node_failure([&](NodeId node, Seconds) {
    auto pos = fabric.position_of_node(node);
    ASSERT_TRUE(pos.has_value());
    EXPECT_TRUE(ctrl.on_switch_failure(*pos).recovered);
  });
  det.on_link_failure([&](net::LinkId link, Seconds) {
    EXPECT_TRUE(ctrl.on_link_failure(link).recovered);
  });

  // Watch everything.
  for (NodeId sw : fabric.fat_tree().all_switches()) {
    det.watch_node(sw, 0.2);
  }
  net::NodeId edge = fabric.fat_tree().edge(0, 0);
  net::NodeId agg = fabric.fat_tree().agg(0, 2);
  net::LinkId link = *fabric.network().find_link(edge, agg);
  det.watch_link(link, 0.2);

  // Inject: a core dies at 10 ms; the edge-agg link dies at 50 ms from a
  // faulty edge-side interface.
  NodeId core = fabric.fat_tree().core(3);
  q.schedule_at(0.010, [&] { fabric.network().fail_node(core); });
  q.schedule_at(0.050, [&] {
    std::size_t cs = fabric.cs_of_link(link);
    auto edge_dev = fabric.device_at(*fabric.position_of_node(edge));
    fabric.set_interface_health({edge_dev, cs}, false);
    fabric.network().fail_link(link);
  });
  q.run();

  // Both failures recovered at the packet layer.
  EXPECT_FALSE(fabric.network().node_failed(core));
  EXPECT_FALSE(fabric.network().link_failed(link));
  EXPECT_EQ(net::live_component_count(fabric.network()), 1u);

  // Diagnosis exonerates the agg device, leaving only true casualties out.
  ctrl.run_pending_diagnosis();
  EXPECT_EQ(ctrl.stats().switches_exonerated, 1u);
  EXPECT_EQ(ctrl.stats().switches_confirmed_faulty, 1u);
  EXPECT_EQ(fabric.spares(Layer::kAgg, 0).size(), 1u);
  fabric.check_invariants();
}

TEST(Integration, CapacityNIndependentLinkFailuresPerGroup) {
  // §5.1: each failure group tolerates n independent link failures (after
  // diagnosis frees the healthy side each time).
  FabricParams fabp;
  fabp.fat_tree.k = 6;
  fabp.backups_per_group = 2;
  Fabric fabric(fabp);
  Controller ctrl(fabric, ControllerConfig{});

  // Two sequential link failures rooted at pod-0 edges (faulty edge side),
  // diagnosed between events.
  for (int round = 0; round < 2; ++round) {
    net::NodeId edge = fabric.fat_tree().edge(0, round);
    net::NodeId agg = fabric.fat_tree().agg(0, round);
    net::LinkId link = *fabric.network().find_link(edge, agg);
    std::size_t cs = fabric.cs_of_link(link);
    auto edge_dev = fabric.device_at(*fabric.position_of_node(edge));
    fabric.set_interface_health({edge_dev, cs}, false);
    fabric.network().fail_link(link);
    ASSERT_TRUE(ctrl.on_link_failure(link).recovered) << round;
    ctrl.run_pending_diagnosis();
  }
  // Two edge backups consumed; agg pool refilled by exoneration.
  EXPECT_TRUE(fabric.spares(Layer::kEdge, 0).empty());
  EXPECT_EQ(fabric.spares(Layer::kAgg, 0).size(), 2u);
  EXPECT_EQ(ctrl.stats().switches_confirmed_faulty, 2u);
  fabric.check_invariants();
}

}  // namespace
}  // namespace sbk
