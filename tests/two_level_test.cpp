// Tests for the two-level routing tables and the VLAN-based live
// impersonation machinery (§4.3): table sizes, forwarding correctness,
// and — the crucial property — forwarding invariance under failovers.
#include <gtest/gtest.h>

#include "control/controller.hpp"
#include "routing/impersonation.hpp"
#include "routing/two_level.hpp"
#include "sharebackup/fabric.hpp"
#include "topo/failure_group_pool.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace sbk::routing {
namespace {

TEST(TwoLevelTable, PrefixPrecedesSuffixAndLongestMatchWins) {
  TwoLevelTable t;
  t.add_prefix(kNoVlan, 2, -1, -1, 10);
  t.add_prefix(kNoVlan, 2, 1, -1, 11);
  t.add_suffix(kNoVlan, 0, 99);

  EXPECT_EQ(t.lookup(HostAddr{2, 1, 0}, kNoVlan), 11);  // longest prefix
  EXPECT_EQ(t.lookup(HostAddr{2, 0, 0}, kNoVlan), 10);
  EXPECT_EQ(t.lookup(HostAddr{3, 0, 0}, kNoVlan), 99);  // suffix fallback
  EXPECT_EQ(t.lookup(HostAddr{3, 0, 1}, kNoVlan), std::nullopt);
}

TEST(TwoLevelTable, VlanGatingAndRequireTagMatch) {
  TwoLevelTable t;
  t.add_suffix(kNoVlan, 0, 1);  // in-bound style (untagged)
  t.add_suffix(2, 0, 7);        // out-bound style, VLAN 2

  // Untagged lookup never sees tagged entries.
  EXPECT_EQ(t.lookup(HostAddr{0, 0, 0}, kNoVlan), 1);
  // Tagged lookup with require_tag_match skips untagged entries.
  EXPECT_EQ(t.lookup(HostAddr{0, 0, 0}, 2, /*require_tag_match=*/true), 7);
  EXPECT_EQ(t.lookup(HostAddr{0, 0, 0}, 3, /*require_tag_match=*/true),
            std::nullopt);
}

TEST(TwoLevelTable, RejectsDegenerateEntries) {
  TwoLevelTable t;
  EXPECT_THROW(t.add_prefix(kNoVlan, -1, -1, -1, 1), sbk::ContractViolation);
  EXPECT_THROW(t.add_suffix(kNoVlan, 0, -1), sbk::ContractViolation);
}

TEST(TableBuilder, SizesMatchPaperFormulas) {
  for (int k : {4, 8, 16, 48, 64}) {
    TwoLevelTableBuilder b(k);
    const int half = k / 2;
    EXPECT_EQ(b.edge_table(0, 0).size(), static_cast<std::size_t>(k));
    EXPECT_EQ(b.agg_table(0).size(), static_cast<std::size_t>(k));
    EXPECT_EQ(b.core_table().size(), static_cast<std::size_t>(k));
    // Combined edge table: k/2 in-bound + k^2/4 out-bound (§4.3).
    TwoLevelTable combined = b.combined_edge_table(0);
    EXPECT_EQ(combined.size(), static_cast<std::size_t>(half + half * half));
  }
}

TEST(TableBuilder, CombinedTableAtK64Holds1056Entries) {
  // The paper's headline TCAM number: 1056 entries for k = 64.
  TwoLevelTableBuilder b(64);
  EXPECT_EQ(b.combined_edge_table(0).size(), 1056u);
}

TEST(TableBuilder, CombinedEqualsMergeOfEdgeTables) {
  TwoLevelTableBuilder b(8);
  TwoLevelTable merged;
  for (int e = 0; e < 4; ++e) merged.merge(b.edge_table(2, e));
  TwoLevelTable combined = b.combined_edge_table(2);
  EXPECT_EQ(merged.size(), combined.size());
  // Same lookups on a sample of keys.
  for (int vlan = 0; vlan < 4; ++vlan) {
    for (int h = 0; h < 4; ++h) {
      EXPECT_EQ(merged.lookup(HostAddr{0, 0, h}, vlan, true),
                combined.lookup(HostAddr{0, 0, h}, vlan, true));
      EXPECT_EQ(merged.lookup(HostAddr{0, 0, h}, kNoVlan),
                combined.lookup(HostAddr{0, 0, h}, kNoVlan));
    }
  }
}

// Position-level helpers over a standalone fat-tree pool.
std::optional<topo::FailureGroupPool::Failover> fail_over(
    topo::FailureGroupPool& pool, int k, SwitchPosition pos) {
  return pool.fail_over(topo::failure_group_index(k, pos),
                        topo::group_slot_of(k, pos));
}

DeviceUid device_at(const topo::FailureGroupPool& pool, int k,
                    SwitchPosition pos) {
  return pool.device_at(topo::failure_group_index(k, pos),
                        topo::group_slot_of(k, pos));
}

class ForwardingAllPairs : public ::testing::TestWithParam<int> {};

TEST_P(ForwardingAllPairs, EveryHostPairDeliversWithCorrectHopCount) {
  const int k = GetParam();
  const int half = k / 2;
  ImpersonationStore tables(k);
  topo::FailureGroupPool pool = topo::make_fat_tree_pool(k, 1, 1, 1);
  ForwardingSim sim(tables, pool);
  for (int sp = 0; sp < k; ++sp) {
    for (int se = 0; se < half; ++se) {
      for (int sh = 0; sh < half; ++sh) {
        for (int dp = 0; dp < k; ++dp) {
          for (int de = 0; de < half; ++de) {
            for (int dh = 0; dh < half; ++dh) {
              HostAddr src{sp, se, sh};
              HostAddr dst{dp, de, dh};
              if (src == dst) continue;
              ForwardingTrace t = sim.walk(src, dst);
              ASSERT_TRUE(t.delivered)
                  << sp << ',' << se << ',' << sh << " -> " << dp << ','
                  << de << ',' << dh;
              if (sp != dp) {
                EXPECT_EQ(t.switch_hops(), 5u);
              } else {
                // Intra-pod traffic turns around at an agg; intra-edge
                // traffic also bounces via an agg in this model (§4.3
                // keeps only k/2 shared in-bound entries).
                EXPECT_EQ(t.switch_hops(), 3u);
              }
            }
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, ForwardingAllPairs, ::testing::Values(4, 6));

TEST(Impersonation, FailoverPreservesForwardingExactly) {
  const int k = 6;
  const int half = k / 2;
  ImpersonationStore tables(k);
  topo::FailureGroupPool pool = topo::make_fat_tree_pool(k, 2, 2, 2);
  ForwardingSim sim(tables, pool);

  // Record baseline traces for a sample of pairs.
  std::vector<std::pair<HostAddr, HostAddr>> pairs;
  for (int i = 0; i < half; ++i) {
    pairs.push_back({{0, i, 0}, {3, (i + 1) % half, 2}});
    pairs.push_back({{2, 0, i}, {2, 2, (i + 2) % half}});
    pairs.push_back({{5, i, i}, {1, 0, 0}});
  }
  std::vector<std::vector<SwitchPosition>> baseline;
  for (auto& [s, d] : pairs) {
    ForwardingTrace t = sim.walk(s, d);
    ASSERT_TRUE(t.delivered);
    baseline.push_back(t.positions);
  }

  // Fail over a mix of positions.
  ASSERT_TRUE(fail_over(pool, k, {Layer::kEdge, 0, 1}).has_value());
  ASSERT_TRUE(fail_over(pool, k, {Layer::kAgg, 3, 0}).has_value());
  ASSERT_TRUE(fail_over(pool, k, {Layer::kCore, -1, 4}).has_value());
  ASSERT_TRUE(fail_over(pool, k, {Layer::kEdge, 2, 2}).has_value());

  // Forwarding must be unchanged at the position level: same positions,
  // same hop counts, delivery everywhere.
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    ForwardingTrace t = sim.walk(pairs[i].first, pairs[i].second);
    ASSERT_TRUE(t.delivered);
    EXPECT_EQ(t.positions, baseline[i]) << "pair " << i;
  }
}

TEST(Impersonation, ReplacementDeviceServesPositionWithGroupTable) {
  const int k = 8;
  ImpersonationStore tables(k);
  topo::FailureGroupPool pool = topo::make_fat_tree_pool(k, 1, 1, 1);
  SwitchPosition pos{Layer::kEdge, 2, 1};
  DeviceUid before = device_at(pool, k, pos);
  auto failover = fail_over(pool, k, pos);
  ASSERT_TRUE(failover.has_value());
  EXPECT_EQ(failover->failed, before);
  DeviceUid after = device_at(pool, k, pos);
  EXPECT_NE(after, before);
  // Both devices hold the same preloaded table: their group's.
  EXPECT_EQ(&tables.table_of(pool, before), &tables.table_of(pool, after));
  EXPECT_EQ(pool.group_of(after), topo::failure_group_index(k, pos));
  EXPECT_EQ(topo::failure_group_at(k, pool.group_of(after)).layer,
            Layer::kEdge);
}

TEST(Impersonation, PoolExhaustionAndReturn) {
  topo::FailureGroupPool pool = topo::make_fat_tree_pool(4, 1, 1, 1);
  SwitchPosition a{Layer::kAgg, 0, 0};
  SwitchPosition b{Layer::kAgg, 0, 1};
  auto f1 = fail_over(pool, 4, a);
  ASSERT_TRUE(f1.has_value());
  EXPECT_FALSE(fail_over(pool, 4, b).has_value());  // pool exhausted (n=1)
  EXPECT_TRUE(pool.return_to_pool(f1->failed));
  EXPECT_TRUE(fail_over(pool, 4, b).has_value());  // repaired device reused
  pool.check_invariants();
}

TEST(Impersonation, CoreGroupFailoverUsesOwnGroupSpares) {
  const int k = 8;
  topo::FailureGroupPool pool = topo::make_fat_tree_pool(k, 1, 1, 1);
  // Cores 1, 5, 9, 13 are group 1 (k/2 = 4).
  const int core1 = topo::failure_group_index(k, Layer::kCore, 1);
  const int core0 = topo::failure_group_index(k, Layer::kCore, 0);
  auto spares_before = pool.spares(core1);
  ASSERT_EQ(spares_before.size(), 1u);
  auto f = fail_over(pool, k, {Layer::kCore, -1, 9});
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->replacement, spares_before[0]);
  EXPECT_TRUE(pool.spares(core1).empty());
  EXPECT_EQ(pool.spares(core0).size(), 1u);  // untouched
}

TEST(Impersonation, RandomizedFailoverChurnKeepsAllPairsDelivering) {
  const int k = 4;
  const int half = k / 2;
  ImpersonationStore tables(k);
  topo::FailureGroupPool pool = topo::make_fat_tree_pool(k, 2, 2, 2);
  ForwardingSim sim(tables, pool);
  sbk::Rng rng(2024);

  std::vector<SwitchPosition> positions;
  for (int pod = 0; pod < k; ++pod) {
    for (int j = 0; j < half; ++j) {
      positions.push_back({Layer::kEdge, pod, j});
      positions.push_back({Layer::kAgg, pod, j});
    }
  }
  for (int c = 0; c < half * half; ++c) {
    positions.push_back({Layer::kCore, -1, c});
  }

  std::vector<DeviceUid> replaced;
  for (int round = 0; round < 40; ++round) {
    if (!replaced.empty() && rng.bernoulli(0.5)) {
      std::size_t i = rng.uniform_index(replaced.size());
      pool.return_to_pool(replaced[i]);
      replaced.erase(replaced.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      auto pos = positions[rng.uniform_index(positions.size())];
      if (auto f = fail_over(pool, k, pos)) replaced.push_back(f->failed);
    }
    pool.check_invariants();
    // Spot-check delivery across pods each round.
    ForwardingTrace t = sim.walk(HostAddr{0, 0, 0}, HostAddr{3, 1, 1});
    ASSERT_TRUE(t.delivered) << "round " << round;
    ForwardingTrace u = sim.walk(HostAddr{2, 1, 0}, HostAddr{2, 0, 1});
    ASSERT_TRUE(u.delivered) << "round " << round;
  }
}

TEST(Impersonation, ForwardingInvariantUnderControllerChurn) {
  // The walker reads the fabric's own pool: every controller-driven
  // failover, exoneration and repair is visible to it with no mirror.
  const int k = 6;
  sharebackup::FabricParams fp;
  fp.fat_tree.k = k;
  fp.backups_per_group = 2;
  sharebackup::Fabric fabric(fp);
  control::Controller ctrl(fabric, control::ControllerConfig{});
  ImpersonationStore tables(k);
  ForwardingSim fsim(tables, fabric.pool());

  std::vector<std::pair<HostAddr, HostAddr>> pairs = {
      {{0, 0, 0}, {5, 2, 1}}, {{3, 1, 2}, {3, 2, 0}}, {{1, 0, 0}, {4, 1, 1}}};
  std::vector<std::vector<SwitchPosition>> baseline;
  for (auto& [s, d] : pairs) {
    auto t = fsim.walk(s, d);
    ASSERT_TRUE(t.delivered);
    baseline.push_back(t.positions);
  }

  Rng rng(606);
  std::vector<DeviceUid> out;
  for (int step = 0; step < 60; ++step) {
    ctrl.set_time(step * 10.0);
    if (!out.empty() && rng.bernoulli(0.4)) {
      ctrl.on_device_repaired(out.back());
      out.pop_back();
    } else {
      SwitchPosition pos;
      double layer = rng.uniform_real(0.0, 1.0);
      if (layer < 0.4) {
        pos = {Layer::kEdge, static_cast<int>(rng.uniform_index(k)),
               static_cast<int>(rng.uniform_index(3))};
      } else if (layer < 0.8) {
        pos = {Layer::kAgg, static_cast<int>(rng.uniform_index(k)),
               static_cast<int>(rng.uniform_index(3))};
      } else {
        pos = {Layer::kCore, -1, static_cast<int>(rng.uniform_index(9))};
      }
      net::NodeId node = fabric.node_at(pos);
      if (fabric.network().node_failed(node)) continue;
      fabric.network().fail_node(node);
      auto o = ctrl.on_switch_failure(pos);
      if (o.recovered) {
        out.push_back(o.failovers[0].failed_device);
        // The replacement holds the pod's combined edge table
        // (k/2 + k^2/4 entries) or its group's table.
        const DeviceUid dev = fabric.device_at(pos);
        if (pos.layer == Layer::kEdge) {
          EXPECT_EQ(tables.table_of(fabric.pool(), dev).size(),
                    static_cast<std::size_t>(3 + 9));
        }
        EXPECT_EQ(&tables.table_of(fabric.pool(), dev),
                  &tables.group_table(topo::failure_group_index(k, pos)));
      } else {
        fabric.network().restore_node(node);
      }
    }
    // Forwarding at the position level is bit-for-bit unchanged, and
    // each hop is served by the fabric's current device.
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      auto t = fsim.walk(pairs[i].first, pairs[i].second);
      ASSERT_TRUE(t.delivered) << "step " << step;
      EXPECT_EQ(t.positions, baseline[i]) << "step " << step;
      for (std::size_t h = 0; h < t.positions.size(); ++h) {
        EXPECT_EQ(t.devices[h], fabric.device_at(t.positions[h]));
      }
    }
  }
}

}  // namespace
}  // namespace sbk::routing
