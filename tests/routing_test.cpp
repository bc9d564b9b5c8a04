// Tests for the routing policies: structural path enumeration and its
// by-index construction, ECMP, global min-congestion rerouting, F10
// local rerouting with 3-hop detours, SPIDER-style pre-installed
// detours, precomputed backup rules, the epoch-source-tagged path
// caches, and parity of the indexed structural routers with the
// enumerate-and-index selection they replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>

#include "net/network.hpp"
#include "net/path.hpp"
#include "routing/backup_rules.hpp"
#include "routing/ecmp.hpp"
#include "routing/f10.hpp"
#include "routing/fat_tree_paths.hpp"
#include "routing/global_reroute.hpp"
#include "routing/path_cache.hpp"
#include "routing/spider.hpp"
#include "sweep/sweep.hpp"
#include "topo/fat_tree.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace sbk::routing {
namespace {

using net::NodeId;
using net::Path;
using topo::FatTree;
using topo::FatTreeParams;
using topo::Wiring;

class CandidatePaths : public ::testing::TestWithParam<int> {};

TEST_P(CandidatePaths, CountsMatchFatTreeStructure) {
  const int k = GetParam();
  FatTree ft(FatTreeParams{.k = k});
  const int half = k / 2;

  // Same edge: 1 path of 2 hops.
  auto same_edge = candidate_paths(ft, ft.host(0, 0, 0), ft.host(0, 0, 1),
                                   /*live_only=*/false);
  EXPECT_EQ(same_edge.size(), 1u);
  EXPECT_EQ(same_edge[0].hops(), 2u);

  // Same pod: k/2 paths of 4 hops.
  auto same_pod = candidate_paths(ft, ft.host(0, 0, 0), ft.host(0, 1, 0),
                                  /*live_only=*/false);
  EXPECT_EQ(same_pod.size(), static_cast<std::size_t>(half));
  for (const Path& p : same_pod) EXPECT_EQ(p.hops(), 4u);

  // Inter-pod: (k/2)^2 paths of 6 hops.
  auto inter = candidate_paths(ft, ft.host(0, 0, 0), ft.host(1, 0, 0),
                               /*live_only=*/false);
  EXPECT_EQ(inter.size(), static_cast<std::size_t>(half * half));
  std::set<NodeId> cores_used;
  for (const Path& p : inter) {
    EXPECT_EQ(p.hops(), 6u);
    EXPECT_TRUE(net::is_valid_path(ft.network(), p));
    cores_used.insert(p.nodes[3]);
  }
  // Every core appears in exactly one candidate.
  EXPECT_EQ(cores_used.size(), static_cast<std::size_t>(half * half));
}

TEST_P(CandidatePaths, LiveOnlyFiltersFailedElements) {
  const int k = GetParam();
  FatTree ft(FatTreeParams{.k = k});
  const int half = k / 2;
  NodeId src = ft.host(0, 0, 0);
  NodeId dst = ft.host(1, 0, 0);

  ft.network().fail_node(ft.core(0));
  auto paths = candidate_paths(ft, src, dst, /*live_only=*/true);
  EXPECT_EQ(paths.size(), static_cast<std::size_t>(half * half - 1));
  for (const Path& p : paths) {
    EXPECT_FALSE(net::path_uses_node(p, ft.core(0)));
  }

  ft.network().fail_node(ft.agg(0, 0));  // kills k/2 more up-choices
  paths = candidate_paths(ft, src, dst, /*live_only=*/true);
  EXPECT_EQ(paths.size(), static_cast<std::size_t>(half * half - half));
  ft.network().clear_failures();
}

INSTANTIATE_TEST_SUITE_P(Ks, CandidatePaths, ::testing::Values(4, 6, 8));

TEST(Ecmp, DeterministicPerFlowAndValid) {
  FatTree ft(FatTreeParams{.k = 8});
  EcmpRouter router(ft);
  NodeId src = ft.host(0, 0, 0);
  NodeId dst = ft.host(3, 2, 1);
  Path p1 = router.route(ft.network(), src, dst, 12345, nullptr);
  Path p2 = router.route(ft.network(), src, dst, 12345, nullptr);
  EXPECT_EQ(p1, p2);
  EXPECT_TRUE(net::is_valid_path(ft.network(), p1));
  EXPECT_TRUE(net::is_live_path(ft.network(), p1));
  EXPECT_EQ(p1.hops(), 6u);
}

TEST(Ecmp, SpreadsFlowsAcrossCores) {
  FatTree ft(FatTreeParams{.k = 8});
  EcmpRouter router(ft);
  NodeId src = ft.host(0, 0, 0);
  NodeId dst = ft.host(1, 0, 0);
  std::set<NodeId> cores;
  for (std::uint64_t f = 0; f < 200; ++f) {
    Path p = router.route(ft.network(), src, dst, f, nullptr);
    cores.insert(p.nodes[3]);
  }
  // 200 hashed flows over 16 cores should hit most of them.
  EXPECT_GE(cores.size(), 12u);
}

TEST(Ecmp, RoutesAroundFailuresWhenAlternativesExist) {
  FatTree ft(FatTreeParams{.k = 4});
  EcmpRouter router(ft);
  NodeId src = ft.host(0, 0, 0);
  NodeId dst = ft.host(1, 0, 0);
  ft.network().fail_node(ft.core(0));
  ft.network().fail_node(ft.core(1));
  ft.network().fail_node(ft.core(2));
  for (std::uint64_t f = 0; f < 20; ++f) {
    Path p = router.route(ft.network(), src, dst, f, nullptr);
    ASSERT_FALSE(p.empty());
    EXPECT_EQ(p.nodes[3], ft.core(3));
  }
  ft.network().fail_node(ft.core(3));
  EXPECT_TRUE(router.route(ft.network(), src, dst, 1, nullptr).empty());
}

TEST(Ecmp, PathCacheInvalidatesExactlyOnEpochChange) {
  FatTree ft(FatTreeParams{.k = 4});
  EcmpRouter router(ft);
  NodeId src = ft.host(0, 0, 0);
  NodeId dst = ft.host(1, 0, 0);

  EXPECT_EQ(router.cached_pairs(), 0u);
  Path warm = router.route(ft.network(), src, dst, 7, nullptr);
  EXPECT_EQ(router.cached_pairs(), 1u);

  // Stable epoch: repeated routes (any flow id) reuse the cached
  // candidate set and stay bit-identical to a cold router.
  for (std::uint64_t f = 0; f < 10; ++f) {
    EcmpRouter cold(ft);
    EXPECT_EQ(router.route(ft.network(), src, dst, f, nullptr),
              cold.route(ft.network(), src, dst, f, nullptr));
  }
  EXPECT_EQ(router.cached_pairs(), 1u);
  (void)router.route(ft.network(), dst, src, 7, nullptr);
  EXPECT_EQ(router.cached_pairs(), 2u);

  // Any topology_version bump (here: a failure) flushes the whole
  // cache; the refilled entry reflects the new liveness.
  ft.network().fail_node(ft.core(0));
  Path rerouted = router.route(ft.network(), src, dst, 7, nullptr);
  EXPECT_EQ(router.cached_pairs(), 1u);
  for (NodeId n : rerouted.nodes) EXPECT_NE(n, ft.core(0));
  {
    EcmpRouter cold(ft);
    EXPECT_EQ(rerouted, cold.route(ft.network(), src, dst, 7, nullptr));
  }

  // Repair is an epoch bump too: the cache refills and the warm-path
  // choice returns to its pre-failure value.
  ft.network().restore_node(ft.core(0));
  EXPECT_EQ(router.route(ft.network(), src, dst, 7, nullptr), warm);
  EXPECT_EQ(router.cached_pairs(), 1u);
}

TEST(MinCongestion, PrefersUnloadedPaths) {
  FatTree ft(FatTreeParams{.k = 4});
  MinCongestionRouter router(ft);
  LinkLoads loads(ft.network().link_count());

  NodeId src = ft.host(0, 0, 0);
  NodeId dst = ft.host(1, 0, 0);
  // Load up every path through cores 0..2; core 3 stays free.
  for (int c = 0; c < 3; ++c) {
    auto link = ft.network().find_link(ft.core(c), ft.agg(1, c / 2));
    ASSERT_TRUE(link.has_value());
    loads.add(ft.network().directed(*link, ft.core(c)), 10.0);
  }
  Path p = router.route(ft.network(), src, dst, 77, &loads);
  ASSERT_EQ(p.hops(), 6u);
  EXPECT_EQ(p.nodes[3], ft.core(3));
}

TEST(MinCongestion, BalancesManyFlowsEvenly) {
  FatTree ft(FatTreeParams{.k = 4});
  MinCongestionRouter router(ft);
  LinkLoads loads(ft.network().link_count());
  NodeId src = ft.host(0, 0, 0);
  NodeId dst = ft.host(1, 0, 0);
  std::map<NodeId, int> core_counts;
  for (std::uint64_t f = 0; f < 16; ++f) {
    Path p = router.route(ft.network(), src, dst, f, &loads);
    for (net::DirectedLink dl : p.directed_links(ft.network())) {
      loads.add(dl, 1.0);
    }
    core_counts[p.nodes[3]]++;
  }
  // 16 flows over 4 cores must balance exactly (4 each) under greedy
  // min-max placement.
  for (const auto& [core, count] : core_counts) EXPECT_EQ(count, 4);
  EXPECT_EQ(core_counts.size(), 4u);
}

TEST(EcmpWithGlobalReroute, OnlyAffectedFlowsChangePaths) {
  FatTree ft(FatTreeParams{.k = 8});
  EcmpWithGlobalRerouteRouter router(ft, 4);
  NodeId src = ft.host(0);
  NodeId dst = ft.host(100);

  std::vector<Path> healthy;
  for (std::uint64_t f = 0; f < 64; ++f) {
    healthy.push_back(router.route(ft.network(), src, dst, f, nullptr));
  }
  // Fail the core flow 0 uses, so at least one flow is affected.
  NodeId victim = healthy[0].nodes[3];
  ft.network().fail_node(victim);
  std::size_t changed = 0;
  for (std::uint64_t f = 0; f < 64; ++f) {
    Path p = router.route(ft.network(), src, dst, f, nullptr);
    ASSERT_FALSE(p.empty());
    EXPECT_TRUE(net::is_live_path(ft.network(), p));
    if (net::path_uses_node(healthy[f], victim)) {
      // Affected: must have moved, to a live shortest path.
      EXPECT_NE(p.nodes, healthy[f].nodes);
      EXPECT_EQ(p.hops(), 6u);
      ++changed;
    } else {
      // Unaffected: byte-for-byte the healthy choice (no upstream churn
      // beyond what the failure forces).
      EXPECT_EQ(p.nodes, healthy[f].nodes) << "flow " << f;
    }
  }
  EXPECT_GT(changed, 0u);
  ft.network().clear_failures();
  // With the failure cleared, every flow returns to its healthy path.
  for (std::uint64_t f = 0; f < 64; ++f) {
    EXPECT_EQ(router.route(ft.network(), src, dst, f, nullptr).nodes,
              healthy[f].nodes);
  }
}

TEST(F10, NormalOperationProducesShortestPaths) {
  FatTree ft(FatTreeParams{.k = 8, .wiring = Wiring::kAb});
  F10Router router(ft);
  Path p = router.route(ft.network(), ft.host(0, 0, 0), ft.host(2, 1, 1),
                        99, nullptr);
  ASSERT_FALSE(p.empty());
  EXPECT_EQ(p.hops(), 6u);
  EXPECT_TRUE(net::is_valid_path(ft.network(), p));
}

TEST(F10, CoreLevelDetourAddsTwoHops) {
  // Fail the down-link agg of the destination pod for ALL cores a given
  // up-agg can reach... simpler: fail the one agg in the dst pod that the
  // chosen core would use, for every core of one row, and check flows
  // still arrive (possibly detoured) with at most 8 switch-to-switch hops.
  FatTree ft(FatTreeParams{.k = 8, .wiring = Wiring::kAb});
  F10Router router(ft);
  NodeId src = ft.host(0, 0, 0);  // pod 0 (type A)
  NodeId dst = ft.host(1, 0, 0);  // pod 1 (type B)

  // Fail an aggregation switch in the destination pod: cores wired to it
  // must detour.
  NodeId dead_agg = ft.agg(1, 2);
  ft.network().fail_node(dead_agg);

  std::size_t detoured = 0;
  for (std::uint64_t f = 0; f < 64; ++f) {
    Path p = router.route(ft.network(), src, dst, f, nullptr);
    ASSERT_FALSE(p.empty()) << "flow " << f;
    EXPECT_TRUE(net::is_valid_path(ft.network(), p));
    EXPECT_TRUE(net::is_live_path(ft.network(), p));
    EXPECT_FALSE(net::path_uses_node(p, dead_agg));
    EXPECT_TRUE(p.hops() == 6u || p.hops() == 8u);
    if (p.hops() == 8u) ++detoured;
  }
  // Some flows must have hashed onto cores behind the dead agg.
  EXPECT_GT(detoured, 0u);
}

TEST(F10, EdgeLevelDetourInsideDestinationPod) {
  FatTree ft(FatTreeParams{.k = 8, .wiring = Wiring::kAb});
  F10Router router(ft);
  NodeId src = ft.host(0, 0, 0);
  NodeId dst = ft.host(1, 3, 0);
  NodeId ed = ft.edge(1, 3);

  // Cut the links from 3 of the 4 dst-pod aggs to the dst edge: most
  // down-paths must detour via another edge.
  for (int a = 0; a < 3; ++a) {
    ft.network().fail_link(*ft.network().find_link(ft.agg(1, a), ed));
  }
  std::size_t detoured = 0;
  for (std::uint64_t f = 0; f < 64; ++f) {
    Path p = router.route(ft.network(), src, dst, f, nullptr);
    ASSERT_FALSE(p.empty());
    EXPECT_TRUE(net::is_live_path(ft.network(), p));
    EXPECT_TRUE(p.hops() == 6u || p.hops() == 8u);
    if (p.hops() == 8u) ++detoured;
  }
  EXPECT_GT(detoured, 0u);
}

TEST(F10, IntraPodDetour) {
  FatTree ft(FatTreeParams{.k = 6, .wiring = Wiring::kAb});
  F10Router router(ft);
  NodeId src = ft.host(2, 0, 0);
  NodeId dst = ft.host(2, 1, 0);
  // Cut two of the three agg->dst-edge links.
  ft.network().fail_link(
      *ft.network().find_link(ft.agg(2, 0), ft.edge(2, 1)));
  ft.network().fail_link(
      *ft.network().find_link(ft.agg(2, 1), ft.edge(2, 1)));
  for (std::uint64_t f = 0; f < 32; ++f) {
    Path p = router.route(ft.network(), src, dst, f, nullptr);
    ASSERT_FALSE(p.empty());
    EXPECT_TRUE(net::is_live_path(ft.network(), p));
    EXPECT_TRUE(p.hops() == 4u || p.hops() == 6u);
  }
}

TEST(F10, UnreachableWhenDestinationEdgeDies) {
  FatTree ft(FatTreeParams{.k = 4, .wiring = Wiring::kAb});
  F10Router router(ft);
  ft.network().fail_node(ft.edge(1, 0));
  Path p = router.route(ft.network(), ft.host(0, 0, 0), ft.host(1, 0, 0),
                        5, nullptr);
  EXPECT_TRUE(p.empty());
}

TEST(PathCache, EpochSourceIsBoundAtConstruction) {
  EpochPathCache topo_cache(EpochSource::kTopology);
  EpochPathCache struct_cache(EpochSource::kStructure);
  EXPECT_EQ(topo_cache.source(), EpochSource::kTopology);
  EXPECT_EQ(struct_cache.source(), EpochSource::kStructure);
}

TEST(PathCache, CounterAliasingCannotConfuseEpochSources) {
  // The pre-fix API took a raw epoch value from the caller, so a cache
  // filled under topology_version() could later be probed with
  // structure_version(); the counters are independent and can hold
  // equal values, at which point stale live-filtered entries would be
  // served as fresh. This test manufactures exactly that collision and
  // checks both caches refill according to their *own* counter.
  net::Network net;
  const net::NodeId h0 = net.add_node(net::NodeKind::kHost, "h0");
  const net::NodeId h1 = net.add_node(net::NodeKind::kHost, "h1");
  const net::NodeId h2 = net.add_node(net::NodeKind::kHost, "h2");
  const net::NodeId h3 = net.add_node(net::NodeKind::kHost, "h3");
  const net::LinkId l = net.add_link(h0, h1, 1.0);

  EpochPathCache topo_cache(EpochSource::kTopology);
  EpochPathCache struct_cache(EpochSource::kStructure);
  std::size_t topo_fills = 0;
  std::size_t struct_fills = 0;
  auto topo_fill = [&topo_fills] {
    ++topo_fills;
    return std::vector<Path>{};
  };
  auto struct_fill = [&struct_fills] {
    ++struct_fills;
    return std::vector<Path>{};
  };

  (void)topo_cache.lookup(net, h0, h1, topo_fill);
  (void)struct_cache.lookup(net, h0, h1, struct_fill);
  EXPECT_EQ(topo_fills, 1u);
  EXPECT_EQ(struct_fills, 1u);

  // Failure churn moves topology_version only: the topology-tagged
  // cache refills, the structural one keeps serving its entry.
  net.fail_link(l);
  net.restore_link(l);
  (void)topo_cache.lookup(net, h0, h1, topo_fill);
  (void)struct_cache.lookup(net, h0, h1, struct_fill);
  EXPECT_EQ(topo_fills, 2u);
  EXPECT_EQ(struct_fills, 1u);
  const std::uint64_t topo_fill_epoch = net.topology_version();

  // Two rewirings advance structure_version until its raw value equals
  // the epoch the topology cache was last filled under — the collision
  // the old raw-epoch API could trip over.
  net.retarget_link(l, h1, h2);
  net.retarget_link(l, h2, h3);
  ASSERT_EQ(net.structure_version(), topo_fill_epoch);
  ASSERT_NE(net.topology_version(), topo_fill_epoch);

  // Each cache consults its own bound counter, so both see the change.
  (void)topo_cache.lookup(net, h0, h1, topo_fill);
  (void)struct_cache.lookup(net, h0, h1, struct_fill);
  EXPECT_EQ(topo_fills, 3u);
  EXPECT_EQ(struct_fills, 2u);
}

TEST(Spider, HealthyFlowsMatchReactiveBaselineExactly) {
  // SPIDER's primary selection hashes the same structural candidate set
  // as the reactive front-end, so with no failures the two strategies
  // route every flow identically — comparisons isolate the protection
  // mechanism, not path selection noise.
  FatTree ft(FatTreeParams{.k = 4});
  SpiderProtectRouter spider(ft, /*salt=*/9);
  EcmpWithGlobalRerouteRouter reactive(ft, /*salt=*/9);
  for (std::uint64_t f = 0; f < 32; ++f) {
    EXPECT_EQ(spider.route(ft.network(), ft.host(0), ft.host(13), f, nullptr),
              reactive.route(ft.network(), ft.host(0), ft.host(13), f,
                             nullptr));
  }
  EXPECT_EQ(spider.failovers(), 0u);
  EXPECT_EQ(spider.detour_misses(), 0u);
}

TEST(Spider, LinkFailoverSplicesLiveDetourAtDetectingSwitch) {
  FatTree ft(FatTreeParams{.k = 4});
  NodeId src = ft.host(0, 0, 0);
  NodeId dst = ft.host(1, 0, 0);
  SpiderProtectRouter router(ft);
  const Path primary = router.route(ft.network(), src, dst, 5, nullptr);
  ASSERT_EQ(primary.hops(), 6u);

  // Kill the edge->agg link the primary uses; detection happens at the
  // edge switch, which flips to its pre-installed detour locally.
  ft.network().fail_link(primary.links[1]);
  const Path p = router.route(ft.network(), src, dst, 5, nullptr);
  ASSERT_FALSE(p.empty());
  EXPECT_TRUE(net::is_valid_path(ft.network(), p));
  EXPECT_TRUE(net::is_live_path(ft.network(), p));
  EXPECT_EQ(router.failovers(), 1u);
  EXPECT_EQ(router.detour_misses(), 0u);
  // The spliced path shares the primary prefix through the detecting
  // switch and avoids the dead link.
  EXPECT_EQ(p.nodes[0], primary.nodes[0]);
  EXPECT_EQ(p.nodes[1], primary.nodes[1]);
  EXPECT_EQ(p.links[0], primary.links[0]);
  for (net::LinkId pl : p.links) EXPECT_NE(pl, primary.links[1]);
}

TEST(Spider, UpstreamAggDeathMergesAtDestinationEdge) {
  FatTree ft(FatTreeParams{.k = 4});
  NodeId src = ft.host(0, 0, 0);
  NodeId dst = ft.host(1, 0, 0);
  SpiderProtectRouter router(ft);
  const Path primary = router.route(ft.network(), src, dst, 3, nullptr);
  ASSERT_EQ(primary.hops(), 6u);

  // Kill the source-side aggregation switch. The detecting edge switch
  // cannot reach the primary core within budget (that needs the dead
  // agg), but the destination edge is 4 structural hops away via any
  // other core row — the merge point skips the whole dead segment.
  ft.network().fail_node(primary.nodes[2]);
  const Path p = router.route(ft.network(), src, dst, 3, nullptr);
  ASSERT_FALSE(p.empty());
  EXPECT_TRUE(net::is_valid_path(ft.network(), p));
  EXPECT_TRUE(net::is_live_path(ft.network(), p));
  EXPECT_EQ(router.failovers(), 1u);
  EXPECT_EQ(router.detour_misses(), 0u);
  EXPECT_FALSE(net::path_uses_node(p, primary.nodes[2]));
  EXPECT_EQ(p.nodes.back(), dst);
  EXPECT_EQ(p.hops(), 6u);  // 1-hop prefix + 4-hop detour + final hop
}

TEST(Spider, DownstreamAggFailureExceedsDetourBudgetAndIsLost) {
  // SPIDER's documented coverage limit: an aggregation switch that dies
  // *downstream* of the core is detected at the core, and in plain
  // wiring the destination pod can only be re-entered through another
  // core row — 6+ hops, beyond any 4-hop pre-installed detour. The
  // flow stalls until repair instead of bouncing back.
  FatTree ft(FatTreeParams{.k = 4});
  NodeId src = ft.host(1, 0, 0);
  NodeId dst = ft.host(0, 0, 0);
  SpiderProtectRouter router(ft);
  const Path primary = router.route(ft.network(), src, dst, 3, nullptr);
  ASSERT_EQ(primary.hops(), 6u);

  ft.network().fail_node(primary.nodes[4]);  // destination-side agg
  const Path p = router.route(ft.network(), src, dst, 3, nullptr);
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(router.failovers(), 1u);
  EXPECT_EQ(router.detour_misses(), 1u);
}

TEST(Spider, SecondFailureOnDetourLosesFlow) {
  // Detours are installed blind to the live failure set; a second
  // failure that lands on the detour itself is outside SPIDER's
  // protection and loses the flow.
  FatTree ft(FatTreeParams{.k = 4});
  NodeId src = ft.host(0, 0, 0);
  NodeId dst = ft.host(1, 0, 0);
  SpiderProtectRouter router(ft);
  const Path primary = router.route(ft.network(), src, dst, 7, nullptr);
  ASSERT_EQ(primary.hops(), 6u);

  // Kill every uplink of the detecting edge switch: the primary's
  // edge->agg link triggers the failover, and whatever detour was
  // pre-installed is dead on its first hop.
  const NodeId edge = primary.nodes[1];
  for (int j = 0; j < 2; ++j) {
    ft.network().fail_link(*ft.network().find_link(edge, ft.agg(0, j)));
  }
  const Path p = router.route(ft.network(), src, dst, 7, nullptr);
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(router.failovers(), 1u);
  EXPECT_EQ(router.detour_misses(), 1u);
}

TEST(Spider, IntraPodLinkFailureMergesWithoutLooping) {
  // Regression: the old exact-rejoin construction could splice a detour
  // whose interior contained a node the resumed primary suffix would
  // revisit, producing a node-repeating (invalid) path. The merge-point
  // construction rejoins at the downstream edge directly.
  FatTree ft(FatTreeParams{.k = 4});
  NodeId src = ft.host(0, 0, 0);
  NodeId dst = ft.host(0, 1, 0);
  SpiderProtectRouter router(ft);
  const Path primary = router.route(ft.network(), src, dst, 1, nullptr);
  ASSERT_EQ(primary.hops(), 4u);

  ft.network().fail_link(primary.links[1]);
  const Path p = router.route(ft.network(), src, dst, 1, nullptr);
  ASSERT_FALSE(p.empty());
  EXPECT_TRUE(net::is_valid_path(ft.network(), p));
  EXPECT_TRUE(net::is_live_path(ft.network(), p));
  EXPECT_EQ(p.hops(), 4u);  // via the pod's other aggregation switch
  EXPECT_EQ(router.failovers(), 1u);
  EXPECT_EQ(router.detour_misses(), 0u);
}

TEST(BackupRules, HealthyFlowsNeverTouchBackupOrFallback) {
  FatTree ft(FatTreeParams{.k = 4});
  BackupRulesRouter router(ft, /*salt=*/9);
  EcmpWithGlobalRerouteRouter reactive(ft, /*salt=*/9);
  for (std::uint64_t f = 0; f < 32; ++f) {
    const Path p =
        router.route(ft.network(), ft.host(2), ft.host(11), f, nullptr);
    EXPECT_TRUE(net::is_valid_path(ft.network(), p));
    EXPECT_EQ(p, reactive.route(ft.network(), ft.host(2), ft.host(11), f,
                                nullptr));
  }
  EXPECT_EQ(router.backup_hits(), 0u);
  EXPECT_EQ(router.global_fallbacks(), 0u);
}

TEST(BackupRules, PrefixSharingBackupActivatesAtFirstDeadHop) {
  FatTree ft(FatTreeParams{.k = 4});
  NodeId src = ft.host(0, 0, 0);
  NodeId dst = ft.host(1, 0, 0);
  BackupRulesRouter router(ft);
  const Path primary = router.route(ft.network(), src, dst, 5, nullptr);
  ASSERT_EQ(primary.hops(), 6u);

  // Kill the primary's edge->agg link: the edge switch's pre-installed
  // backup next-hop takes over, keeping the already-traversed prefix.
  ft.network().fail_link(primary.links[1]);
  const Path p = router.route(ft.network(), src, dst, 5, nullptr);
  ASSERT_FALSE(p.empty());
  EXPECT_TRUE(net::is_valid_path(ft.network(), p));
  EXPECT_TRUE(net::is_live_path(ft.network(), p));
  EXPECT_EQ(router.backup_hits(), 1u);
  EXPECT_EQ(router.global_fallbacks(), 0u);
  EXPECT_EQ(p.links[0], primary.links[0]);
  EXPECT_NE(p.nodes, primary.nodes);
}

TEST(BackupRules, ExhaustionFallsBackToGlobalReroute) {
  FatTree ft(FatTreeParams{.k = 4});
  NodeId src = ft.host(0, 0, 0);
  NodeId dst = ft.host(1, 0, 0);
  BackupRulesRouter router(ft);
  const Path primary = router.route(ft.network(), src, dst, 5, nullptr);
  ASSERT_EQ(primary.hops(), 6u);

  // Sever every uplink of the primary's aggregation switch: no
  // alternative candidate shares the prefix through that agg and stays
  // alive, so the precomputed rules are exhausted and the flow takes
  // the reactive global-reroute slow path.
  const NodeId agg = primary.nodes[2];
  int j = -1;
  for (int a = 0; a < 2; ++a) {
    if (ft.agg(0, a) == agg) j = a;
  }
  ASSERT_GE(j, 0);
  for (int c : ft.cores_of_agg(0, j)) {
    ft.network().fail_link(*ft.network().find_link(ft.core(c), agg));
  }
  const Path p = router.route(ft.network(), src, dst, 5, nullptr);
  ASSERT_FALSE(p.empty());
  EXPECT_TRUE(net::is_valid_path(ft.network(), p));
  EXPECT_TRUE(net::is_live_path(ft.network(), p));
  EXPECT_EQ(router.backup_hits(), 0u);
  EXPECT_EQ(router.global_fallbacks(), 1u);
  EXPECT_FALSE(net::path_uses_node(p, agg));
}

TEST(ProtectionRouters, SweepIsBitIdenticalAcrossThreadCounts) {
  // Scenario-private SPIDER and backup-rules routers under random churn
  // must produce byte-identical path sets at any worker count — the
  // determinism contract the comparison matrix and chaos soak lean on.
  auto run_at = [](std::size_t threads) {
    sweep::SweepConfig sc;
    sc.master_seed = 42;
    sc.threads = threads;
    sweep::SweepRunner runner(sc);
    return runner.run(12, [](const sweep::ScenarioSpec& spec) {
      Rng rng = spec.rng();
      FatTree ft(FatTreeParams{.k = 4});
      net::Network& net = ft.network();
      // One random switch + one random link failure per scenario.
      const int half = 2;
      net.fail_node(ft.agg(static_cast<int>(rng.uniform_index(4)),
                           static_cast<int>(rng.uniform_index(half))));
      net.fail_link(
          net::LinkId{static_cast<net::LinkId::value_type>(
              rng.uniform_index(net.link_count()))});
      SpiderProtectRouter spider(ft, spec.seed);
      BackupRulesRouter backup(ft, spec.seed);
      std::vector<Path> out;
      for (std::uint64_t f = 0; f < 20; ++f) {
        const NodeId a = ft.host(static_cast<int>(rng.uniform_index(16)));
        NodeId b = a;
        while (b == a) {
          b = ft.host(static_cast<int>(rng.uniform_index(16)));
        }
        out.push_back(spider.route(net, a, b, f, nullptr));
        out.push_back(backup.route(net, a, b, f, nullptr));
      }
      return out;
    });
  };
  const auto serial = run_at(1);
  EXPECT_EQ(serial, run_at(4));
  EXPECT_EQ(serial, run_at(8));
}

TEST(StructuralHops, Classification) {
  FatTree ft(FatTreeParams{.k = 4});
  EXPECT_EQ(structural_hops(ft, ft.host(0, 0, 0), ft.host(0, 0, 1)), 2u);
  EXPECT_EQ(structural_hops(ft, ft.host(0, 0, 0), ft.host(0, 1, 0)), 4u);
  EXPECT_EQ(structural_hops(ft, ft.host(0, 0, 0), ft.host(2, 1, 0)), 6u);
}

// (k, wiring, hosts per edge)
using StructuralShape = std::tuple<int, Wiring, int>;

class StructuralPath : public ::testing::TestWithParam<StructuralShape> {};

TEST_P(StructuralPath, IndexedBuildEqualsEnumerationForEveryHostPair) {
  const auto [k, wiring, hosts_per_edge] = GetParam();
  FatTree ft(FatTreeParams{
      .k = k, .wiring = wiring, .hosts_per_edge = hosts_per_edge});
  // Structural selection ignores failure flags; a dead core and a dead
  // edge uplink must not change either side.
  ft.network().fail_node(ft.core(0));
  ft.network().fail_link(*ft.network().find_link(ft.edge(0, 0), ft.agg(0, 1)));
  for (NodeId src : ft.hosts()) {
    for (NodeId dst : ft.hosts()) {
      const std::vector<Path> all =
          candidate_paths(ft, src, dst, /*live_only=*/false);
      ASSERT_EQ(structural_path_count(ft, src, dst), all.size());
      for (std::size_t i = 0; i < all.size(); ++i) {
        ASSERT_EQ(structural_path(ft, src, dst, i), all[i])
            << "pair " << src.value() << "->" << dst.value() << " index "
            << i;
      }
    }
  }
  const NodeId a = ft.hosts().front();
  const NodeId b = ft.hosts().back();
  EXPECT_THROW((void)structural_path(ft, a, b, structural_path_count(ft, a, b)),
               ContractViolation);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, StructuralPath,
    ::testing::Combine(::testing::Values(4, 8),
                       ::testing::Values(Wiring::kPlain, Wiring::kAb),
                       ::testing::Values(1, 2)));

// Test-local copies of the three structural-primary routers as they were
// when they enumerated the whole structural candidate set per host pair
// and indexed it by hash. They are the oracle for the indexed routers.
namespace enumerated {

std::vector<Path> structural_set(const FatTree& ft, NodeId src, NodeId dst) {
  return candidate_paths(ft, src, dst, /*live_only=*/false);
}

class EcmpWithGlobalReroute {
 public:
  EcmpWithGlobalReroute(const FatTree& ft, std::uint64_t salt)
      : ft_(&ft), salt_(salt), optimizer_(ft, salt) {}

  Path route(const net::Network& net, NodeId src, NodeId dst,
             std::uint64_t flow_id) {
    const std::vector<Path> candidates = structural_set(*ft_, src, dst);
    if (!candidates.empty()) {
      const std::uint64_t h = mix64(flow_id ^ mix64(salt_));
      const Path& chosen = candidates[h % candidates.size()];
      if (net::is_live_path(net, chosen)) return chosen;
    }
    return optimizer_.route(net, src, dst, flow_id, nullptr);
  }

 private:
  const FatTree* ft_;
  std::uint64_t salt_;
  MinCongestionRouter optimizer_;
};

class BackupRules {
 public:
  BackupRules(const FatTree& ft, std::uint64_t salt)
      : ft_(&ft), salt_(salt), optimizer_(ft, salt) {}

  Path route(const net::Network& net, NodeId src, NodeId dst,
             std::uint64_t flow_id) {
    if (src == dst) return Path{{src}, {}};
    const std::vector<Path> candidates = structural_set(*ft_, src, dst);
    if (candidates.empty()) return {};
    const std::uint64_t h = mix64(flow_id ^ mix64(salt_));
    const std::size_t n = candidates.size();
    const Path& primary = candidates[h % n];
    if (net::is_live_path(net, primary)) return primary;
    if (net.node_failed(src) || net.node_failed(dst)) return {};
    std::size_t fail_at = 0;
    while (net.usable(primary.links[fail_at]) &&
           !net.node_failed(primary.nodes[fail_at + 1])) {
      ++fail_at;
    }
    for (std::size_t t = 1; t < n; ++t) {
      const Path& alt = candidates[(h + t) % n];
      bool shares = alt.links.size() >= fail_at;
      for (std::size_t i = 0; shares && i < fail_at; ++i) {
        shares = alt.links[i] == primary.links[i] &&
                 alt.nodes[i + 1] == primary.nodes[i + 1];
      }
      if (!shares || !net::is_live_path(net, alt)) continue;
      ++backup_hits;
      return alt;
    }
    ++global_fallbacks;
    return optimizer_.route(net, src, dst, flow_id, nullptr);
  }

  std::size_t backup_hits = 0;
  std::size_t global_fallbacks = 0;

 private:
  const FatTree* ft_;
  std::uint64_t salt_;
  MinCongestionRouter optimizer_;
};

class Spider {
 public:
  Spider(const FatTree& ft, std::uint64_t salt) : ft_(&ft), salt_(salt) {}

  Path route(const net::Network& net, NodeId src, NodeId dst,
             std::uint64_t flow_id) {
    if (src == dst) return Path{{src}, {}};
    if (net.node_failed(src) || net.node_failed(dst)) return {};
    const std::vector<Path> candidates = structural_set(*ft_, src, dst);
    if (candidates.empty()) return {};
    const std::uint64_t h = mix64(flow_id ^ mix64(salt_));
    const Path& primary = candidates[h % candidates.size()];

    Path out{{src}, {}};
    bool failed_over = false;
    std::size_t i = 0;
    while (i < primary.links.size()) {
      const NodeId u = out.nodes.back();
      const NodeId v = primary.nodes[i + 1];
      const net::LinkId l = primary.links[i];
      if (net.usable(l) && !net.node_failed(v)) {
        if (failed_over && visits(out, v)) {
          ++detour_misses;
          return {};
        }
        out.nodes.push_back(v);
        out.links.push_back(l);
        ++i;
        continue;
      }
      ++failovers;
      failed_over = true;
      const bool exclude_node = net.node_failed(v);
      const Sweep sweep = bfs(net, u, exclude_node,
                              exclude_node ? v.value() : l.value());
      std::size_t merge = 0;
      int best_depth = -1;
      for (std::size_t p = i + 1; p < primary.nodes.size(); ++p) {
        const NodeId cand = primary.nodes[p];
        if (exclude_node && cand == v) continue;
        const int d = sweep.depth[cand.index()];
        if (d <= 0) continue;
        if (best_depth == -1 || d <= best_depth) {
          best_depth = d;
          merge = p;
        }
      }
      if (best_depth == -1) {
        ++detour_misses;
        return {};
      }
      std::vector<NodeId> detour_nodes;
      std::vector<net::LinkId> detour_links;
      for (NodeId n = primary.nodes[merge]; n != u;
           n = NodeId{static_cast<NodeId::value_type>(
               sweep.parent[n.index()])}) {
        detour_nodes.push_back(n);
        detour_links.push_back(sweep.via[n.index()]);
      }
      for (std::size_t j = detour_nodes.size(); j-- > 0;) {
        const NodeId w = detour_nodes[j];
        const net::LinkId dl = detour_links[j];
        if (!net.usable(dl) || net.node_failed(w) || visits(out, w)) {
          ++detour_misses;
          return {};
        }
        out.nodes.push_back(w);
        out.links.push_back(dl);
      }
      i = merge;
    }
    return out;
  }

  std::size_t failovers = 0;
  std::size_t detour_misses = 0;

 private:
  struct Sweep {
    std::vector<int> depth;
    std::vector<std::int32_t> parent;
    std::vector<net::LinkId> via;
  };

  static bool visits(const Path& p, NodeId n) {
    return std::find(p.nodes.begin(), p.nodes.end(), n) != p.nodes.end();
  }

  // Breadth-first sweep over the structural wiring avoiding one element,
  // never expanding through a host; adjacency in id order.
  static Sweep bfs(const net::Network& net, NodeId from, bool exclude_node,
                   std::uint32_t excluded) {
    Sweep s;
    s.depth.assign(net.node_count(), -1);
    s.parent.assign(net.node_count(), -1);
    s.via.assign(net.node_count(), net::LinkId{});
    std::vector<NodeId> frontier{from};
    s.depth[from.index()] = 0;
    for (std::size_t head = 0; head < frontier.size(); ++head) {
      const NodeId u = frontier[head];
      if (s.depth[u.index()] >= kMaxDetourHops) continue;
      for (const net::Adjacency& adj : net.adjacent(u)) {
        if (exclude_node ? adj.peer.value() == excluded
                         : adj.link.value() == excluded) {
          continue;
        }
        if (s.depth[adj.peer.index()] != -1) continue;
        s.depth[adj.peer.index()] = s.depth[u.index()] + 1;
        s.parent[adj.peer.index()] = static_cast<std::int32_t>(u.index());
        s.via[adj.peer.index()] = adj.link;
        if (net.node(adj.peer).kind != net::NodeKind::kHost) {
          frontier.push_back(adj.peer);
        }
      }
    }
    return s;
  }

  static constexpr int kMaxDetourHops = 4;  // SpiderProtectRouter default
  const FatTree* ft_;
  std::uint64_t salt_;
};

}  // namespace enumerated

TEST(StructuralRouters, IndexedSelectionMatchesEnumerationUnderRandomFailures) {
  // 200 seeded failure sets over k=4/k=8, plain/AB wiring and one or two
  // hosts per edge: 0-3 dead switches plus 0-4 dead links (host links
  // included). Every route and every protection counter of the three
  // indexed routers must equal the enumerate-and-index oracle's.
  std::size_t rerouted = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    FatTree ft(FatTreeParams{
        .k = seed % 2 == 0 ? 8 : 4,
        .wiring = (seed / 2) % 2 == 0 ? Wiring::kPlain : Wiring::kAb,
        .hosts_per_edge = static_cast<int>((seed / 4) % 2) + 1});
    net::Network& net = ft.network();
    const std::vector<NodeId> switches = ft.all_switches();
    for (std::size_t n = rng.uniform_index(4); n > 0; --n) {
      net.fail_node(switches[rng.uniform_index(switches.size())]);
    }
    for (std::size_t n = rng.uniform_index(5); n > 0; --n) {
      net.fail_link(net::LinkId{static_cast<net::LinkId::value_type>(
          rng.uniform_index(net.link_count()))});
    }

    const std::uint64_t salt = rng.uniform_index(1000);
    EcmpWithGlobalRerouteRouter reactive(ft, salt);
    SpiderProtectRouter spider(ft, salt);
    BackupRulesRouter backup(ft, salt);
    enumerated::EcmpWithGlobalReroute reactive_ref(ft, salt);
    enumerated::Spider spider_ref(ft, salt);
    enumerated::BackupRules backup_ref(ft, salt);
    const std::vector<NodeId>& hosts = ft.hosts();
    for (std::uint64_t f = 0; f < 40; ++f) {
      const NodeId a = hosts[rng.uniform_index(hosts.size())];
      const NodeId b = hosts[rng.uniform_index(hosts.size())];
      ASSERT_EQ(reactive.route(net, a, b, f, nullptr),
                reactive_ref.route(net, a, b, f))
          << "seed " << seed;
      ASSERT_EQ(spider.route(net, a, b, f, nullptr),
                spider_ref.route(net, a, b, f))
          << "seed " << seed;
      ASSERT_EQ(backup.route(net, a, b, f, nullptr),
                backup_ref.route(net, a, b, f))
          << "seed " << seed;
    }
    ASSERT_EQ(spider.failovers(), spider_ref.failovers) << "seed " << seed;
    ASSERT_EQ(spider.detour_misses(), spider_ref.detour_misses)
        << "seed " << seed;
    ASSERT_EQ(backup.backup_hits(), backup_ref.backup_hits)
        << "seed " << seed;
    ASSERT_EQ(backup.global_fallbacks(), backup_ref.global_fallbacks)
        << "seed " << seed;
    rerouted += spider.failovers() + backup.backup_hits() +
                backup.global_fallbacks();
  }
  // The failure sets must actually exercise the protection paths.
  EXPECT_GT(rerouted, 200u);
}

}  // namespace
}  // namespace sbk::routing
