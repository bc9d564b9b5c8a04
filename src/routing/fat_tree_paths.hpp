// Structural enumeration of fat-tree host-to-host paths. Faster and more
// precise than generic graph search: candidate sets follow directly from
// the fat-tree structure (choice of aggregation switch, choice of core),
// so one candidate can also be built from its index alone.
#pragma once

#include <vector>

#include "net/path.hpp"
#include "topo/fat_tree.hpp"

namespace sbk::routing {

/// All structurally shortest host-to-host paths in `ft`, optionally
/// restricted to paths whose every node and link is currently up.
/// For src == dst returns the single trivial path. Order is agg-major:
/// by up-aggregation index, then (inter-pod) by core in
/// FatTree::core_of_agg order.
[[nodiscard]] std::vector<net::Path> candidate_paths(
    const topo::FatTree& ft, net::NodeId src, net::NodeId dst,
    bool live_only);

/// Size of the structural candidate set, i.e.
/// candidate_paths(ft, src, dst, false).size(): 1 (same host or same
/// edge), k/2 (same pod) or (k/2)^2 (inter-pod). O(1), no allocation.
[[nodiscard]] std::size_t structural_path_count(const topo::FatTree& ft,
                                                net::NodeId src,
                                                net::NodeId dst);

/// Element `i` of candidate_paths(ft, src, dst, false), built directly
/// in O(hops) without enumerating the others. Candidate i of a same-pod
/// pair goes up through aggregation switch i; of an inter-pod pair,
/// through aggregation i / (k/2) and that switch's core i % (k/2).
/// Failure flags are ignored. Precondition: i < structural_path_count.
[[nodiscard]] net::Path structural_path(const topo::FatTree& ft,
                                        net::NodeId src, net::NodeId dst,
                                        std::size_t i);

/// Shortest-path hop count between two distinct hosts in a healthy
/// fat-tree: 2 (same edge), 4 (same pod), 6 (inter-pod).
[[nodiscard]] std::size_t structural_hops(const topo::FatTree& ft,
                                          net::NodeId src, net::NodeId dst);

}  // namespace sbk::routing
