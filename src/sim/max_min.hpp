// Max-min fair bandwidth allocation by progressive filling (the classic
// water-filling algorithm). Given a set of flows, each pinned to a path
// of directed link uses, computes the unique max-min fair rate vector
// subject to directed link capacities.
//
// The allocation runs on every fluid-simulator event, so the solver is
// built for reuse: MaxMinSolver keeps dense flat scratch arrays indexed
// by directed-link slot (no hashing on the hot path) and recycles them
// across calls. See DESIGN.md ("MaxMinSolver data layout").
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "net/network.hpp"
#include "util/assert.hpp"

namespace sbk::sim {

/// One demand: the directed links a flow occupies. An empty set of links
/// (src == dst at the fluid level) receives an infinite rate and should
/// be filtered by the caller.
struct Demand {
  std::vector<net::DirectedLink> links;
};

/// Progressive-filling rounds over caller-chosen dense link and flow ids:
/// the one implementation behind MaxMinSolver and IncrementalMaxMin,
/// which differ only in how they find a link's flows and a flow's links.
/// Before run(), every link id in `active` has residual = max(capacity,
/// 0) and unfrozen = its crossing count (> 0), and every flow it will
/// reach has frozen = 0. The scratch vectors keep their capacity.
///
/// No result depends on the order flows or links are visited in: the
/// bottleneck is a min over doubles, the freeze set is fixed by the
/// round-start residuals before any flow freezes, and every flow frozen
/// in a round takes the same share off each link it crosses, so each
/// link's residual sees the same subtractions in any order. Hence both
/// callers agree bit for bit with max_min_rates_reference, which freezes
/// in ascending flow order.
struct ProgressiveFill {
  std::vector<double> residual;          ///< per link: capacity - frozen
  std::vector<std::uint32_t> unfrozen;   ///< per link: flows not yet fixed
  std::vector<std::uint8_t> frozen;      ///< per flow
  std::vector<std::uint32_t> active;     ///< links with unfrozen flows
  std::vector<double> share;             ///< scratch, parallel to active
  std::vector<std::uint32_t> bottlenecks;  ///< scratch, one round's links

  /// Fixes `remaining` flows. flows_on(link, fn) calls fn(flow) for each
  /// crossing of the link, links_of(flow, fn) calls fn(link) for each
  /// crossing of the flow, and set_rate(flow, rate) hears each flow once.
  template <typename FlowsOn, typename LinksOf, typename SetRate>
  void run(std::size_t remaining, FlowsOn&& flows_on, LinksOf&& links_of,
           SetRate&& set_rate) {
    share.resize(active.size());
    while (remaining > 0) {
      // One pass drops exhausted links from the worklist, caches each
      // survivor's fair share and takes their minimum.
      double bottleneck_share = std::numeric_limits<double>::infinity();
      std::size_t kept = 0;
      for (std::uint32_t l : active) {
        if (unfrozen[l] == 0) continue;
        const double s = residual[l] / static_cast<double>(unfrozen[l]);
        active[kept] = l;
        share[kept++] = s;
        bottleneck_share = std::min(bottleneck_share, s);
      }
      active.resize(kept);
      SBK_ASSERT_MSG(
          bottleneck_share < std::numeric_limits<double>::infinity(),
          "unfrozen flows must sit on at least one link");
      bottleneck_share = std::max(bottleneck_share, 0.0);

      // Freeze every unfrozen flow crossing a bottleneck link at that
      // share. (Several links can bottleneck at the same share.)
      bottlenecks.clear();
      const double freeze_at = bottleneck_share * (1.0 + 1e-12) + 1e-15;
      for (std::size_t i = 0; i < kept; ++i) {
        if (share[i] <= freeze_at) bottlenecks.push_back(active[i]);
      }
      SBK_ASSERT(!bottlenecks.empty());
      for (std::uint32_t b : bottlenecks) {
        flows_on(b, [&](std::uint32_t f) {
          if (frozen[f]) return;
          frozen[f] = 1;
          set_rate(f, bottleneck_share);
          --remaining;
          links_of(f, [&](std::uint32_t l) {
            residual[l] -= bottleneck_share;
            if (residual[l] < 0.0) residual[l] = 0.0;  // absorb fp noise
            --unfrozen[l];
          });
        });
      }
    }
  }
};

/// Reusable progressive-filling solver. One instance amortizes its
/// scratch buffers over many calls — the fluid simulator owns one and
/// calls it on every allocation event.
///
/// Two call styles:
///   * batch: solve(net, demands) — drop-in for max_min_rates();
///   * incremental: begin(net); add_demand(links)...; solve_into(rates)
///     — avoids materializing Demand copies; the spans must stay valid
///     until solve_into returns.
///
/// Postconditions (verified by tests, identical to the reference
/// allocator bit for bit):
///  * no directed link's total allocated rate exceeds its capacity
///    (within floating tolerance);
///  * the vector is max-min: each flow is bottlenecked at some saturated
///    link where its rate is maximal among the link's flows;
///  * a failed/drained (capacity-0) link freezes its flows at rate 0;
///  * pathless demands receive +infinity.
class MaxMinSolver {
 public:
  MaxMinSolver() = default;

  void begin(const net::Network& net, std::size_t expected_demands = 0);
  void add_demand(std::span<const net::DirectedLink> links);
  void solve_into(std::vector<double>& rates_out);

  [[nodiscard]] std::vector<double> solve(const net::Network& net,
                                          const std::vector<Demand>& demands);

 private:
  /// Dense slot for a directed link.
  [[nodiscard]] static std::size_t slot(net::DirectedLink dl) noexcept {
    return dl.link.index() * 2 + (dl.forward ? 0 : 1);
  }

  const net::Network* net_ = nullptr;

  // Per-call demand set: spans into caller-owned storage.
  std::vector<std::span<const net::DirectedLink>> demands_;

  // Slot -> compact touched-link index, stamped per call so the arrays
  // never need clearing (slot_index_[s] is valid iff slot_stamp_[s] ==
  // stamp_). Sized 2 * link_count lazily.
  std::vector<std::uint32_t> slot_index_;
  std::vector<std::uint64_t> slot_stamp_;
  std::uint64_t stamp_ = 0;

  // Filling state over compact touched-link indices and demand indices,
  // plus the CSR of flows per touched link it walks.
  ProgressiveFill fill_;
  std::vector<std::uint32_t> flow_offset_;  // CSR offsets into link_flows_
  std::vector<std::uint32_t> link_flows_;   // CSR payload: flow indices
};

/// One-shot convenience wrapper over MaxMinSolver (constructs a solver
/// per call; hot paths should hold a MaxMinSolver instead).
[[nodiscard]] std::vector<double> max_min_rates(
    const net::Network& net, const std::vector<Demand>& demands);

/// The original one-shot allocator, kept as the executable specification
/// for MaxMinSolver. Test-only: the randomized property suite checks the
/// solver reproduces this function's output bit for bit on random demand
/// sets over failed/drained topologies. Do not call from hot paths.
[[nodiscard]] std::vector<double> max_min_rates_reference(
    const net::Network& net, const std::vector<Demand>& demands);

}  // namespace sbk::sim
