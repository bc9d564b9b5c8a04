// Tests for the assembled control plane: detection-to-recovery wiring,
// background diagnosis scheduling, §4.3 forwarding over the fabric's
// pool, headless report buffering in the cluster, and repeated-failure
// handling at one position (re-armed detectors).
#include <gtest/gtest.h>

#include "control/control_plane.hpp"
#include "net/algo.hpp"
#include "routing/impersonation.hpp"

namespace sbk::control {
namespace {

using sharebackup::DeviceState;
using sharebackup::Fabric;
using sharebackup::FabricParams;
using sharebackup::InterfaceRef;
using topo::Layer;
using topo::SwitchPosition;

FabricParams fp(int k, int n) {
  FabricParams p;
  p.fat_tree.k = k;
  p.backups_per_group = n;
  return p;
}

/// Walks every host pair through the §4.3 tables of the devices the
/// fabric's pool currently assigns; true iff all are delivered.
bool all_pairs_deliver(const Fabric& fabric) {
  const int k = fabric.k();
  const int half = fabric.half_k();
  routing::ImpersonationStore tables(k);
  routing::ForwardingSim sim(tables, fabric.pool());
  for (int s = 0; s < k * half * half; ++s) {
    for (int d = 0; d < k * half * half; ++d) {
      if (s == d) continue;
      routing::HostAddr src{s / (half * half), (s / half) % half, s % half};
      routing::HostAddr dst{d / (half * half), (d / half) % half, d % half};
      if (!sim.walk(src, dst).delivered) return false;
    }
  }
  return true;
}

TEST(ControlPlane, NodeFailureRecoversEndToEnd) {
  Fabric fabric(fp(6, 1));
  sim::EventQueue q;
  ControlPlane plane(fabric, q, ControlPlaneConfig{});
  plane.start(0.1);

  net::NodeId victim = fabric.fat_tree().core(3);
  Seconds recovered_at = -1.0;
  plane.on_recovery([&](const RecoveryOutcome& out, Seconds t) {
    if (out.recovered) recovered_at = t;
  });
  q.schedule_at(0.010, [&] { fabric.network().fail_node(victim); });
  q.run();
  EXPECT_GT(recovered_at, 0.010);
  EXPECT_LT(recovered_at, 0.020);
  EXPECT_FALSE(fabric.network().node_failed(victim));
}

TEST(ControlPlane, LinkFailureDiagnosedInBackground) {
  Fabric fabric(fp(6, 1));
  sim::EventQueue q;
  ControlPlaneConfig cfg;
  cfg.diagnosis_delay = 0.05;
  ControlPlane plane(fabric, q, cfg);
  plane.start(0.5);

  net::NodeId edge = fabric.fat_tree().edge(1, 0);
  net::NodeId agg = fabric.fat_tree().agg(1, 1);
  net::LinkId link = *fabric.network().find_link(edge, agg);
  std::size_t cs = fabric.cs_of_link(link);
  q.schedule_at(0.02, [&] {
    auto dev = fabric.device_at(*fabric.position_of_node(edge));
    fabric.set_interface_health({dev, cs}, false);
    fabric.network().fail_link(link);
  });
  q.run();
  EXPECT_FALSE(fabric.network().link_failed(link));
  // Diagnosis ran via the scheduled background job: the agg side is back
  // in its pool, the faulty edge device is out.
  EXPECT_EQ(plane.controller().pending_diagnosis(), 0u);
  EXPECT_EQ(plane.controller().stats().switches_exonerated, 1u);
  EXPECT_EQ(fabric.spares(Layer::kAgg, 1).size(), 1u);
  fabric.check_invariants();
}

TEST(ControlPlane, RepeatedFailuresAtSamePositionAreReDetected) {
  // Position fails, recovers, and the *replacement* fails later: the
  // re-armed keep-alive detector must catch the second failure too.
  Fabric fabric(fp(6, 2));
  sim::EventQueue q;
  ControlPlane plane(fabric, q, ControlPlaneConfig{});
  plane.start(0.2);

  SwitchPosition pos{Layer::kAgg, 0, 0};
  net::NodeId node = fabric.node_at(pos);
  int recoveries = 0;
  plane.on_recovery([&](const RecoveryOutcome& out, Seconds) {
    if (out.recovered && !out.failovers.empty()) ++recoveries;
  });
  q.schedule_at(0.010, [&] { fabric.network().fail_node(node); });
  q.schedule_at(0.100, [&] { fabric.network().fail_node(node); });
  q.run();
  EXPECT_EQ(recoveries, 2);
  EXPECT_TRUE(fabric.spares(Layer::kAgg, 0).empty());
  EXPECT_FALSE(fabric.network().node_failed(node));
}

TEST(ControlPlane, ReportsBufferedDuringElectionReplayToNewPrimary) {
  // A report that lands in an election window is buffered and replayed
  // once the new primary is elected.
  Fabric fabric(fp(4, 1));
  sim::EventQueue q;
  ControlPlaneConfig cfg;
  cfg.cluster.members = 2;
  cfg.cluster.election_duration = 0.050;
  ControlPlane plane(fabric, q, cfg);
  plane.start(0.5);

  // Kill only the primary: member 0 stays alive and wins the election.
  q.schedule_at(0.01, [&] { plane.cluster().fail_member(1); });
  net::NodeId victim = fabric.fat_tree().core(0);
  Seconds recovered_at = -1.0;
  plane.on_recovery([&](const RecoveryOutcome& out, Seconds t) {
    if (out.recovered && !out.failovers.empty()) recovered_at = t;
  });
  q.schedule_at(0.015, [&] { fabric.network().fail_node(victim); });
  q.run();
  EXPECT_GE(plane.cluster().buffered(), 1u);
  EXPECT_EQ(plane.cluster().replayed(), plane.cluster().buffered());
  EXPECT_EQ(plane.cluster().backlog(), 0u);
  EXPECT_FALSE(fabric.network().node_failed(victim));
  EXPECT_EQ(plane.controller().stats().failovers, 1u);
  // Recovery happened at the election-completion timestamp, not before.
  EXPECT_GT(recovered_at, 0.015);
}

TEST(ControlPlane, TotalClusterDeathBuffersUntilMemberRepaired) {
  // The satellite regression: every controller dies, a network failure
  // arrives while headless, then one member is repaired. The repaired
  // member must restart heartbeats, win an election, and receive the
  // buffered report — the failure recovers and available() is true.
  Fabric fabric(fp(4, 1));
  sim::EventQueue q;
  ControlPlane plane(fabric, q, ControlPlaneConfig{});
  plane.start(1.0);

  q.schedule_at(0.01, [&] {
    plane.cluster().fail_member(0);
    plane.cluster().fail_member(1);
    plane.cluster().fail_member(2);
  });
  net::NodeId victim = fabric.fat_tree().core(1);
  q.schedule_at(0.05, [&] { fabric.network().fail_node(victim); });
  q.schedule_at(0.30, [&] { plane.cluster().repair_member(0); });
  q.run();
  EXPECT_TRUE(plane.cluster().available());
  EXPECT_EQ(plane.cluster().primary(), std::optional<std::size_t>(0));
  EXPECT_GE(plane.cluster().buffered(), 1u);
  EXPECT_GE(plane.cluster().replayed(), 1u);
  EXPECT_EQ(plane.cluster().backlog(), 0u);
  EXPECT_FALSE(fabric.network().node_failed(victim));
  EXPECT_EQ(plane.controller().stats().failovers, 1u);
}

TEST(ControlPlane, PrimaryBlipRepairReplaysBufferedReport) {
  // The primary dies and is repaired before its misses call an
  // election, with a switch failure reported in between. No election
  // fires, so the repair itself must replay the buffered report, or it
  // stays buffered and the core switch stays failed.
  Fabric fabric(fp(4, 1));
  sim::EventQueue q;
  ControlPlane plane(fabric, q, ControlPlaneConfig{});
  plane.start(0.2);

  net::NodeId victim = fabric.fat_tree().core(1);
  q.schedule_at(0.0101, [&] { plane.cluster().fail_member(2); });
  q.schedule_at(0.0102, [&] { fabric.network().fail_node(victim); });
  q.schedule_at(0.025, [&] {
    EXPECT_FALSE(plane.cluster().election_in_progress());
    plane.cluster().repair_member(2);
  });
  q.run();
  EXPECT_EQ(plane.cluster().term(), 0u);  // no election happened
  EXPECT_EQ(plane.cluster().buffered(), 1u);
  EXPECT_EQ(plane.cluster().replayed(), 1u);
  EXPECT_EQ(plane.cluster().backlog(), 0u);
  EXPECT_FALSE(fabric.network().node_failed(victim));
  EXPECT_EQ(plane.controller().stats().failovers, 1u);
}

TEST(ControlPlane, DefaultClusterRecoversAndMirrorsTables) {
  Fabric fabric(fp(4, 1));
  sim::EventQueue q;
  ControlPlane plane(fabric, q, ControlPlaneConfig{});
  EXPECT_EQ(plane.cluster().member_count(), ClusterConfig{}.members);
  EXPECT_TRUE(plane.cluster().available());
  plane.start(0.1);
  net::NodeId victim = fabric.fat_tree().edge(0, 0);
  q.schedule_at(0.01, [&] { fabric.network().fail_node(victim); });
  q.run();
  EXPECT_FALSE(fabric.network().node_failed(victim));
  EXPECT_EQ(plane.controller().stats().failovers, 1u);
  EXPECT_EQ(plane.cluster().buffered(), 0u);
  // The preloaded tables follow the fabric's own pool.
  EXPECT_TRUE(all_pairs_deliver(fabric));
}

TEST(ControlPlane, NonUniformAggBackupsRecoverOntoBothSpares) {
  // §6 non-uniform groups: two agg backups per pod, one elsewhere. The
  // plane used to size its table copy from n and refuse to construct.
  FabricParams p = fp(4, 1);
  p.backups_agg = 2;
  Fabric fabric(p);
  const std::vector<sharebackup::DeviceUid> spares =
      fabric.spares(Layer::kAgg, 0);
  ASSERT_EQ(spares.size(), 2u);
  sim::EventQueue q;
  ControlPlane plane(fabric, q, ControlPlaneConfig{});
  plane.start(0.1);
  const SwitchPosition a0{Layer::kAgg, 0, 0};
  const SwitchPosition a1{Layer::kAgg, 0, 1};
  q.schedule_at(0.01, [&] { fabric.network().fail_node(fabric.node_at(a0)); });
  q.schedule_at(0.03, [&] { fabric.network().fail_node(fabric.node_at(a1)); });
  q.run();
  EXPECT_EQ(plane.controller().stats().failovers, 2u);
  EXPECT_FALSE(fabric.network().node_failed(fabric.node_at(a0)));
  EXPECT_FALSE(fabric.network().node_failed(fabric.node_at(a1)));
  EXPECT_EQ(fabric.device_at(a0), spares[0]);
  EXPECT_EQ(fabric.device_at(a1), spares[1]);
  EXPECT_TRUE(fabric.spares(Layer::kAgg, 0).empty());
  fabric.check_invariants();
  EXPECT_TRUE(all_pairs_deliver(fabric));
}

TEST(ControlPlane, DetectorAndControllerShareOneTiming) {
  // soak_test's coarse timing: 50 ms probes, 2 misses. The plane's
  // controller must charge the same model its detector probes on.
  ControlPlaneConfig cfg;
  cfg.timing.probe_interval = milliseconds(50);
  cfg.timing.miss_threshold = 2;
  Fabric fabric(fp(4, 1));
  sim::EventQueue q;
  ControlPlane plane(fabric, q, cfg);
  const Seconds modeled =
      sharebackup_latency(cfg.timing, fabric.technology()).total();
  EXPECT_DOUBLE_EQ(plane.controller().end_to_end_recovery_latency(),
                   modeled);

  // A crash just after the 0.10 s probe is declared on the 0.20 s probe
  // (two misses) and recovered one control path later: inside the
  // model's worst case, and far past the 1 ms x 3 default.
  plane.start(1.0);
  const net::NodeId victim = fabric.fat_tree().core(1);
  const Seconds crash = 0.105;
  Seconds recovered_at = -1.0;
  plane.on_recovery([&](const RecoveryOutcome& out, Seconds t) {
    if (out.recovered && recovered_at < 0.0) {
      recovered_at = t + out.control_latency;
    }
  });
  q.schedule_at(crash, [&] { fabric.network().fail_node(victim); });
  q.run();
  ASSERT_GT(recovered_at, 0.0);
  EXPECT_GT(recovered_at - crash, cfg.timing.probe_interval);
  EXPECT_LE(recovered_at - crash, modeled);
}

}  // namespace
}  // namespace sbk::control
