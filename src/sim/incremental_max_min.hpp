// Incremental max-min fair allocation: the k=48/64-scale successor to
// re-solving the whole fabric on every event.
//
// The progressive-filling solution decomposes over the connected
// components of the bipartite flow/link constraint graph: a flow's rate
// depends only on the links it crosses, the flows on those links, their
// links, and so on transitively. A failure, repair, arrival, or
// completion therefore only perturbs the component (the "failure
// group's" traffic) it touches. This allocator keeps per-directed-link
// flow membership lists between events, marks the touched links/flows
// dirty, closes the dirty set to full components with a BFS over the
// membership lists, and runs progressive filling on those lists in
// place — every other flow keeps its previous rate, which is provably
// still the global solution's value.
//
// Bit-compatibility: the rounds are ProgressiveFill's, whose results do
// not depend on visiting order, so each rate equals the full solve's
// (and max_min_rates_reference's) for that flow. The decomposition could
// only diverge if two distinct components' bottleneck shares were
// unequal yet within the 1e-12 freeze tolerance of each other, a band
// realizable capacities never populate (DESIGN.md "Incremental max-min
// and the dirty-component invariant"). The churn property suite in
// tests/incremental_max_min_test.cpp pins bit-identity to the oracle.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "net/network.hpp"
#include "sim/max_min.hpp"

namespace sbk::sim {

/// Long-lived allocator over a churning flow set. Typical driver loop:
///
///   inc.bind(net);
///   slot = inc.add_flow(path_links);     // arrival
///   inc.remove_flow(slot);               // completion / path death
///   inc.note_topology_change();          // after mutating the Network
///   inc.solve();                         // re-solves dirty components
///   r = inc.rate(slot);
///
/// Flow slots are dense indices recycled through a free list; all state
/// lives in flat arrays indexed by slot or by directed-link slot — no
/// hashing anywhere. Membership entries are pooled in one arena with an
/// intrusive doubly-linked list per directed link, so arrival and
/// completion are O(path length).
class IncrementalMaxMin {
 public:
  using FlowSlot = std::uint32_t;
  static constexpr FlowSlot kNoSlot = std::numeric_limits<FlowSlot>::max();

  IncrementalMaxMin() = default;

  /// Binds to a network and snapshots its per-link capacities (the
  /// change-detection baseline for note_topology_change). Resets all
  /// flow state. The network must outlive the allocator.
  void bind(const net::Network& net);

  /// Registers a flow pinned to `links` (copied). Returns its slot.
  /// A link-less flow receives rate +infinity immediately.
  [[nodiscard]] FlowSlot add_flow(std::span<const net::DirectedLink> links);

  /// Unregisters a flow; its former links' components are re-solved on
  /// the next solve(). The slot is recycled.
  void remove_flow(FlowSlot slot);

  /// Diffs link capacities against the bound snapshot and dirties every
  /// changed link's component. Call after topology actions; the diff is
  /// one linear pass over the link array, so batching several mutations
  /// under a single call is free.
  void note_topology_change();

  /// Re-solves every dirty component; a clean allocator is a no-op.
  void solve();

  /// Rate of an alive flow, valid after solve(). +infinity for
  /// link-less flows.
  [[nodiscard]] double rate(FlowSlot slot) const {
    return flows_[slot].rate;
  }

  [[nodiscard]] std::size_t flow_count() const noexcept { return alive_; }
  /// True if events since the last solve() require re-solving.
  [[nodiscard]] bool dirty() const noexcept {
    return !dirty_slots_.empty() || !dirty_flows_.empty();
  }

  // --- introspection (benchmarks and tests) ------------------------------
  /// Component-closure solves performed (no-op solves not counted).
  [[nodiscard]] std::size_t solves() const noexcept { return solves_; }
  /// Flows re-solved by the most recent non-trivial solve().
  [[nodiscard]] std::size_t last_dirty_flows() const noexcept {
    return last_dirty_flows_;
  }
  /// Flows re-solved across all solves (the work an oracle full-resolve
  /// driver would multiply by the whole population instead).
  [[nodiscard]] std::size_t total_resolved_flows() const noexcept {
    return total_resolved_flows_;
  }

 private:
  /// One flow-on-link membership, pooled; doubly linked per link slot.
  struct Member {
    FlowSlot flow = kNoSlot;
    std::uint32_t prev = kNoMember;
    std::uint32_t next = kNoMember;
    std::uint32_t slot = 0;  ///< directed-link slot this entry sits on
  };
  static constexpr std::uint32_t kNoMember =
      std::numeric_limits<std::uint32_t>::max();

  struct FlowRec {
    std::vector<net::DirectedLink> links;  // capacity reused on recycle
    std::vector<std::uint32_t> members;    // pool ids, parallel to links
    double rate = std::numeric_limits<double>::infinity();
    bool alive = false;
  };

  [[nodiscard]] static std::uint32_t link_slot(net::DirectedLink dl) noexcept {
    return dl.link.value() * 2 + (dl.forward ? 0 : 1);
  }
  void ensure_link_arrays();

  const net::Network* net_ = nullptr;

  std::vector<FlowRec> flows_;
  std::vector<FlowSlot> free_flows_;
  std::size_t alive_ = 0;

  std::vector<Member> members_;            // pooled membership arena
  std::vector<std::uint32_t> free_members_;
  std::vector<std::uint32_t> link_head_;   // per directed slot -> chain head

  std::vector<double> cap_snapshot_;       // per undirected link

  // Dirty seeds (may repeat; the BFS stamps dedupe them) and BFS
  // scratch. Stamps avoid O(universe) clears.
  std::vector<std::uint32_t> dirty_slots_;
  std::vector<FlowSlot> dirty_flows_;
  std::vector<std::uint64_t> slot_seen_;
  std::vector<std::uint64_t> flow_seen_;
  std::uint64_t seen_stamp_ = 0;
  std::vector<std::uint32_t> bfs_slots_;
  std::vector<FlowSlot> comp_flows_;

  ProgressiveFill fill_;  // over directed slots and flow slots

  std::size_t solves_ = 0;
  std::size_t last_dirty_flows_ = 0;
  std::size_t total_resolved_flows_ = 0;
};

}  // namespace sbk::sim
