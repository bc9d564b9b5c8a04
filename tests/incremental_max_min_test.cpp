// Property suite for IncrementalMaxMin: the dirty-component re-solver
// must be bit-identical to the full-fabric reference oracle under every
// interleaving of arrivals, completions, capacity drains/restores, and
// failure flips — and the equality must survive any sweep thread count.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "net/path.hpp"
#include "routing/ecmp.hpp"
#include "sim/fluid_sim.hpp"
#include "sim/incremental_max_min.hpp"
#include "sim/max_min.hpp"
#include "sweep/sweep.hpp"
#include "topo/fat_tree.hpp"
#include "util/rng.hpp"

namespace sbk {
namespace {

using sim::IncrementalMaxMin;

/// One alive flow in the churn driver. `live` stays in admission order
/// (erase is order-preserving); the allocator's rates must not depend on
/// it, but the oracle is fed in that order.
struct LiveFlow {
  IncrementalMaxMin::FlowSlot slot = IncrementalMaxMin::kNoSlot;
  std::vector<net::DirectedLink> links;
};

/// Runs `steps` random churn events against one incremental allocator,
/// asserting after every event that each alive flow's rate equals the
/// reference oracle's output exactly. Returns all rates produced (used
/// by the sweep-invariance test as the scenario fingerprint).
std::vector<double> churn_trial(std::uint64_t seed, std::size_t steps) {
  Rng rng(seed);
  topo::FatTree ft(topo::FatTreeParams{.k = 4});
  net::Network& net = ft.network();
  routing::EcmpRouter router(ft);

  IncrementalMaxMin inc;
  inc.bind(net);

  std::vector<LiveFlow> live;
  std::vector<std::pair<net::LinkId, double>> drained;
  std::vector<net::LinkId> failed;
  std::uint64_t next_flow_id = 0;
  std::vector<double> fingerprint;

  for (std::size_t s = 0; s < steps; ++s) {
    switch (rng.uniform_index(6)) {
      case 0:
      case 1:
      case 2: {  // arrival (weighted up to keep the population non-trivial)
        const net::NodeId src = ft.host(static_cast<int>(
            rng.uniform_index(static_cast<std::size_t>(ft.host_count()))));
        const net::NodeId dst = ft.host(static_cast<int>(
            rng.uniform_index(static_cast<std::size_t>(ft.host_count()))));
        if (src == dst) break;
        net::Path p = router.route(net, src, dst, next_flow_id++, nullptr);
        // Unroutable pairs become link-less flows: must get +inf.
        LiveFlow lf;
        lf.links = p.directed_links(net);
        lf.slot = inc.add_flow(lf.links);
        live.push_back(std::move(lf));
        break;
      }
      case 3: {  // completion
        if (live.empty()) break;
        const std::size_t victim = rng.uniform_index(live.size());
        inc.remove_flow(live[victim].slot);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
        break;
      }
      case 4: {  // capacity drain, or restore of a previous drain
        if (!drained.empty() && rng.uniform_index(2) == 0) {
          const auto [id, cap] = drained.back();
          drained.pop_back();
          net.set_link_capacity(id, cap);
        } else {
          const net::LinkId id(static_cast<std::uint32_t>(
              rng.uniform_index(net.link_count())));
          drained.emplace_back(id, net.link(id).capacity);
          net.set_link_capacity(id, 0.0);
        }
        inc.note_topology_change();
        break;
      }
      case 5: {  // failure flip: affects routing of future arrivals only
        if (!failed.empty() && rng.uniform_index(2) == 0) {
          net.restore_link(failed.back());
          failed.pop_back();
        } else {
          const net::LinkId id(static_cast<std::uint32_t>(
              rng.uniform_index(net.link_count())));
          if (net.link_failed(id)) break;
          net.fail_link(id);
          failed.push_back(id);
        }
        // Failed flags are not allocation inputs; the capacity diff must
        // see nothing here. Calling it anyway proves that.
        inc.note_topology_change();
        break;
      }
    }

    inc.solve();

    std::vector<sim::Demand> demands;
    demands.reserve(live.size());
    for (const LiveFlow& lf : live) demands.push_back(sim::Demand{lf.links});
    const std::vector<double> want = sim::max_min_rates_reference(net, demands);
    for (std::size_t i = 0; i < live.size(); ++i) {
      const double got = inc.rate(live[i].slot);
      if (std::isinf(want[i])) {
        EXPECT_TRUE(std::isinf(got)) << "seed " << seed << " step " << s;
      } else {
        EXPECT_EQ(got, want[i]) << "seed " << seed << " step " << s
                                << " flow " << i;
      }
      fingerprint.push_back(got);
    }
  }
  return fingerprint;
}

TEST(IncrementalMaxMin, RandomChurnMatchesReferenceBitForBit) {
  // 200 independent trials of ~40 events each; every intermediate state
  // is checked against the oracle, so one trial exercises dozens of
  // dirty-component closures over arrivals, completions, drains,
  // restores, and (allocation-invisible) failure flips.
  for (std::uint64_t trial = 0; trial < 200; ++trial) {
    churn_trial(/*seed=*/0x5b0 + trial * 7919, /*steps=*/40);
  }
}

TEST(IncrementalMaxMin, ChurnFingerprintIndependentOfSweepThreads) {
  // The churn trial embedded in a SweepRunner must produce identical
  // doubles at 1, 4, and 8 threads: scenario seeds are derived from
  // (master_seed, index), never from scheduling.
  constexpr std::size_t kScenarios = 12;
  auto run_at = [](std::size_t threads) {
    sweep::SweepRunner runner(sweep::SweepConfig{.master_seed = 99,
                                                 .threads = threads});
    return runner.run(kScenarios, [](const sweep::ScenarioSpec& spec) {
      return churn_trial(spec.seed, /*steps=*/25);
    });
  };
  const auto t1 = run_at(1);
  const auto t4 = run_at(4);
  const auto t8 = run_at(8);
  ASSERT_EQ(t1.size(), kScenarios);
  for (std::size_t i = 0; i < kScenarios; ++i) {
    EXPECT_EQ(t1[i], t4[i]) << "scenario " << i;
    EXPECT_EQ(t1[i], t8[i]) << "scenario " << i;
  }
}

TEST(IncrementalMaxMin, PodLocalChurnResolvesOnlyThatPodsComponent) {
  // Pod-local traffic never crosses core links, so each pod is its own
  // connected component: removing a pod-0 flow must re-solve pod 0
  // alone, and pod-1 rates must not even be recomputed.
  topo::FatTree ft(topo::FatTreeParams{.k = 4});
  net::Network& net = ft.network();
  routing::EcmpRouter router(ft);
  IncrementalMaxMin inc;
  inc.bind(net);

  // k=4: 4 hosts per pod; hosts 0..3 are pod 0, 4..7 pod 1. All flows
  // of a pod share their source host's uplink (the same *directed*
  // slot — sharing just a cable in opposite directions does not couple
  // allocations), so each pod forms exactly one component.
  std::vector<IncrementalMaxMin::FlowSlot> pod0, pod1;
  std::uint64_t id = 0;
  auto add_pair = [&](int a, int b) {
    net::Path p = router.route(net, ft.host(a), ft.host(b), id++, nullptr);
    EXPECT_FALSE(p.empty());
    return inc.add_flow(p.directed_links(net));
  };
  for (int i = 1; i < 4; ++i) {
    pod0.push_back(add_pair(0, i));
    pod1.push_back(add_pair(4, 4 + i));
  }
  inc.solve();
  const std::size_t solves_before = inc.solves();
  std::vector<double> pod1_rates;
  for (auto s : pod1) pod1_rates.push_back(inc.rate(s));

  inc.remove_flow(pod0.back());
  pod0.pop_back();
  inc.solve();
  EXPECT_EQ(inc.solves(), solves_before + 1);
  // Only pod 0's surviving flows were in the dirty component.
  EXPECT_EQ(inc.last_dirty_flows(), pod0.size());
  for (std::size_t i = 0; i < pod1.size(); ++i) {
    EXPECT_EQ(inc.rate(pod1[i]), pod1_rates[i]);
  }
}

/// Checks every live flow's rate against the reference oracle, bit for
/// bit (the oracle sees the flows in `live` order).
void expect_matches_reference(const net::Network& net,
                              const IncrementalMaxMin& inc,
                              const std::vector<LiveFlow>& live) {
  std::vector<sim::Demand> demands;
  for (const LiveFlow& lf : live) demands.push_back(sim::Demand{lf.links});
  const std::vector<double> want = sim::max_min_rates_reference(net, demands);
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(inc.rate(live[i].slot), want[i]) << "flow " << i;
  }
}

TEST(IncrementalMaxMin, LinkAddedAfterBindGrowsScratch) {
  // Structural surgery after bind() grows the directed-slot universe;
  // the per-slot filling scratch must grow with it before a flow on a
  // new link is solved.
  topo::FatTree ft(topo::FatTreeParams{.k = 4});
  net::Network& net = ft.network();
  routing::EcmpRouter router(ft);
  IncrementalMaxMin inc;
  inc.bind(net);

  std::vector<LiveFlow> live;
  std::uint64_t id = 0;
  auto add_routed = [&](int a, int b, std::vector<net::DirectedLink> pre) {
    net::Path p = router.route(net, ft.host(a), ft.host(b), id++, nullptr);
    EXPECT_FALSE(p.empty());
    LiveFlow lf;
    lf.links = std::move(pre);
    for (net::DirectedLink dl : p.directed_links(net)) lf.links.push_back(dl);
    lf.slot = inc.add_flow(lf.links);
    live.push_back(std::move(lf));
  };
  add_routed(0, 5, {});
  add_routed(1, 6, {});
  add_routed(5, 7, {});
  inc.solve();
  expect_matches_reference(net, inc, live);

  // Several new host-to-host links, enough to outgrow any slack in the
  // slot arrays. Flows over them join the existing component through
  // host 5's and host 6's uplinks.
  std::vector<net::LinkId> added;
  for (int i = 0; i < 8; ++i) {
    added.push_back(net.add_link(ft.host(8 + i), ft.host(i % 4 == 0 ? 5 : 6),
                                 0.25 + 0.125 * i));
  }
  for (int i = 0; i < 8; ++i) {
    const net::NodeId from = ft.host(8 + i);
    const int mid = i % 4 == 0 ? 5 : 6;
    add_routed(mid, 7 - (i % 2), {net.directed(added[i], from)});
  }
  // A flow on a new link alone is its own component.
  {
    LiveFlow lf;
    lf.links = {net.directed(added[3], ft.host(6))};
    lf.slot = inc.add_flow(lf.links);
    live.push_back(std::move(lf));
  }
  inc.solve();
  expect_matches_reference(net, inc, live);

  // Drain one new link and drop an old flow: both re-solve the shared
  // component.
  net.set_link_capacity(added[4], 0.0);
  inc.note_topology_change();
  inc.remove_flow(live[1].slot);
  live.erase(live.begin() + 1);
  inc.solve();
  expect_matches_reference(net, inc, live);
}

TEST(IncrementalMaxMin, DrainedLinkAndFlowlessDirtySeed) {
  topo::FatTree ft(topo::FatTreeParams{.k = 4});
  net::Network& net = ft.network();
  routing::EcmpRouter router(ft);
  IncrementalMaxMin inc;
  inc.bind(net);

  // Pod-0 traffic only; pod 3's links carry nothing.
  std::vector<LiveFlow> live;
  std::uint64_t id = 0;
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      if (a == b) continue;
      LiveFlow lf;
      lf.links = router.route(net, ft.host(a), ft.host(b), id++, nullptr)
                     .directed_links(net);
      lf.slot = inc.add_flow(lf.links);
      live.push_back(std::move(lf));
    }
  }
  inc.solve();
  expect_matches_reference(net, inc, live);
  const std::size_t solves_before = inc.solves();

  // Draining an idle link seeds two dirty slots with no flow on them:
  // the closure is empty and nothing is re-solved.
  const net::LinkId idle =
      router.route(net, ft.host(15), ft.host(14), id++, nullptr)
          .directed_links(net)
          .front()
          .link;
  net.set_link_capacity(idle, 0.0);
  inc.note_topology_change();
  EXPECT_TRUE(inc.dirty());
  inc.solve();
  EXPECT_FALSE(inc.dirty());
  EXPECT_EQ(inc.solves(), solves_before);
  expect_matches_reference(net, inc, live);

  // Drain a loaded link alongside another flowless seed: its flows
  // freeze at rate 0 and the rest of the component takes the slack.
  const net::LinkId loaded = live[0].links.front().link;
  net.set_link_capacity(loaded, 0.0);
  net.set_link_capacity(idle, 1.0);
  inc.note_topology_change();
  inc.solve();
  EXPECT_EQ(inc.solves(), solves_before + 1);
  EXPECT_EQ(inc.rate(live[0].slot), 0.0);
  expect_matches_reference(net, inc, live);
}

/// Builds the identical scenario twice and diffs the FlowResults of the
/// incremental and full-resolve FluidSimulator configurations.
void expect_fluidsim_ab_identical(bool reroute_on_path_failure) {
  auto run = [reroute_on_path_failure](bool incremental) {
    topo::FatTree ft(topo::FatTreeParams{.k = 4});
    net::Network& net = ft.network();
    routing::EcmpRouter router(ft);
    sim::SimConfig cfg;
    cfg.incremental_max_min = incremental;
    cfg.reroute_on_path_failure = reroute_on_path_failure;
    sim::FluidSimulator simlr(net, router, cfg);

    Rng rng(2024);
    std::uint64_t id = 0;
    for (int i = 0; i < 60; ++i) {
      sim::FlowSpec f;
      f.id = id++;
      f.src = ft.host(static_cast<int>(
          rng.uniform_index(static_cast<std::size_t>(ft.host_count()))));
      f.dst = ft.host(static_cast<int>(
          rng.uniform_index(static_cast<std::size_t>(ft.host_count()))));
      f.bytes = 1e6 + rng.uniform_real(0.0, 5e7);
      f.start = rng.uniform_real(0.0, 0.05);
      f.coflow = static_cast<sim::CoflowId>(i / 6);
      simlr.add_flow(f);
    }
    // Failure/repair storm mid-run: kills paths (reroute or stall), then
    // brings them back (resume), then drains and restores capacity.
    const net::LinkId l0(3), l1(9);
    simlr.at(0.01, [l0, l1](net::Network& n) {
      n.fail_link(l0);
      n.fail_link(l1);
    });
    simlr.at(0.03, [l0, l1](net::Network& n) {
      n.restore_link(l0);
      n.restore_link(l1);
    });
    simlr.at(0.04, [l0](net::Network& n) { n.set_link_capacity(l0, 0.25); });
    simlr.at(0.06, [l0](net::Network& n) { n.set_link_capacity(l0, 1.0); });
    return simlr.run();
  };

  const auto full = run(false);
  const auto incr = run(true);
  ASSERT_EQ(full.size(), incr.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(full[i].spec.id, incr[i].spec.id);
    EXPECT_EQ(full[i].outcome, incr[i].outcome) << "flow " << i;
    EXPECT_EQ(full[i].finish, incr[i].finish) << "flow " << i;
    EXPECT_EQ(full[i].bytes_remaining, incr[i].bytes_remaining)
        << "flow " << i;
    EXPECT_EQ(full[i].reroutes, incr[i].reroutes) << "flow " << i;
  }
}

TEST(IncrementalMaxMin, FluidSimRerouteModeMatchesFullResolve) {
  expect_fluidsim_ab_identical(/*reroute_on_path_failure=*/true);
}

TEST(IncrementalMaxMin, FluidSimStallResumeModeMatchesFullResolve) {
  expect_fluidsim_ab_identical(/*reroute_on_path_failure=*/false);
}

}  // namespace
}  // namespace sbk
