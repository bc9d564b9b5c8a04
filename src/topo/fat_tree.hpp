// k-ary fat-tree builder (Al-Fares et al., SIGCOMM'08) with optional
// F10-style AB wiring (Liu et al., NSDI'13) between the aggregation and
// core layers.
//
// Structure of a k-ary fat-tree:
//   * k pods; each pod has k/2 edge switches and k/2 aggregation switches;
//   * (k/2)^2 core switches;
//   * edge j in a pod connects to every aggregation switch in the pod;
//   * plain wiring: aggregation switch j (in every pod) connects to the
//     k/2 cores j*(k/2) .. j*(k/2)+k/2-1 ("row j");
//   * AB wiring: pods alternate type A (plain) and type B (transpose:
//     aggregation j connects to cores i*(k/2)+j, i.e. "column j"), which
//     is what gives F10 its local rerouting options;
//   * each edge switch serves hosts_per_edge hosts (k/2 in the canonical
//     fat-tree; 1 when hosts model whole racks, as in the paper's §2.2
//     experiments on rack-level traffic).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/ids.hpp"
#include "net/network.hpp"

namespace sbk::topo {

/// Agg-core wiring scheme.
enum class Wiring : std::uint8_t {
  kPlain,  ///< canonical fat-tree
  kAb,     ///< F10 AB tree: odd pods use transposed core wiring
};

/// Build-time parameters. `k` must be even and >= 4.
struct FatTreeParams {
  int k = 4;
  Wiring wiring = Wiring::kPlain;
  /// Hosts attached to each edge switch; defaults to k/2 when 0.
  int hosts_per_edge = 0;
  /// Capacity of host-edge links. Setting this above
  /// edge_capacity * (k/2) models an oversubscribed edge when
  /// hosts_per_edge == 1 (rack-aggregate hosts), e.g. 10:1 in the paper.
  double host_link_capacity = 1.0;
  /// Capacity of edge-agg links.
  double edge_agg_capacity = 1.0;
  /// Capacity of agg-core links.
  double agg_core_capacity = 1.0;
};

/// An immutable-topology fat-tree over a mutable-failure-state Network.
/// Provides the index <-> NodeId maps every other module needs.
class FatTree {
 public:
  explicit FatTree(const FatTreeParams& params);

  [[nodiscard]] const FatTreeParams& params() const noexcept {
    return params_;
  }
  [[nodiscard]] int k() const noexcept { return params_.k; }
  [[nodiscard]] int half_k() const noexcept { return params_.k / 2; }
  [[nodiscard]] int pods() const noexcept { return params_.k; }
  [[nodiscard]] int hosts_per_edge() const noexcept {
    return params_.hosts_per_edge;
  }
  [[nodiscard]] int core_count() const noexcept {
    return half_k() * half_k();
  }
  [[nodiscard]] int host_count() const noexcept {
    return pods() * half_k() * hosts_per_edge();
  }

  [[nodiscard]] net::Network& network() noexcept { return net_; }
  [[nodiscard]] const net::Network& network() const noexcept { return net_; }

  // --- id lookups ---------------------------------------------------------
  [[nodiscard]] net::NodeId edge(int pod, int j) const;
  [[nodiscard]] net::NodeId agg(int pod, int j) const;
  [[nodiscard]] net::NodeId core(int c) const;
  /// Host `h` of edge switch `j` in `pod`, h in [0, hosts_per_edge).
  [[nodiscard]] net::NodeId host(int pod, int j, int h) const;
  /// Host by global index in [0, host_count()).
  [[nodiscard]] net::NodeId host(int global_index) const;
  [[nodiscard]] int host_global_index(net::NodeId host) const;

  [[nodiscard]] const std::vector<net::NodeId>& hosts() const noexcept {
    return hosts_;
  }
  [[nodiscard]] const std::vector<net::NodeId>& cores() const noexcept {
    return cores_;
  }
  /// All edge (resp. agg) switches, pod-major then index order.
  [[nodiscard]] const std::vector<net::NodeId>& edges() const noexcept {
    return edges_;
  }
  [[nodiscard]] const std::vector<net::NodeId>& aggs() const noexcept {
    return aggs_;
  }
  /// Every switch (edge, agg, core), in that order.
  [[nodiscard]] std::vector<net::NodeId> all_switches() const;

  // --- structural queries ---------------------------------------------------
  /// Pod of a host/edge/agg node (precondition: node is in a pod).
  [[nodiscard]] int pod_of(net::NodeId node) const;
  /// In-pod index of an edge/agg switch.
  [[nodiscard]] int index_of(net::NodeId node) const;
  /// Edge switch a host attaches to.
  [[nodiscard]] net::NodeId edge_of_host(net::NodeId host) const;
  /// The aggregation switch adjacent to `core` inside `pod` (by wiring).
  [[nodiscard]] net::NodeId agg_for_core(int core_index, int pod) const;
  /// The i-th core (i in [0, k/2)) adjacent to aggregation switch
  /// (pod, j), in ascending core-index order. Allocation-free.
  [[nodiscard]] int core_of_agg(int pod, int j, int i) const;
  /// Core indices adjacent to aggregation switch (pod, j), ascending.
  [[nodiscard]] std::vector<int> cores_of_agg(int pod, int j) const;

  /// Link between a host and its edge switch.
  [[nodiscard]] net::LinkId host_link(net::NodeId host) const;

 private:
  void build();

  FatTreeParams params_;
  net::Network net_;
  std::vector<net::NodeId> hosts_;         // global host index
  std::vector<net::NodeId> edges_;         // pod * k/2 + j
  std::vector<net::NodeId> aggs_;          // pod * k/2 + j
  std::vector<net::NodeId> cores_;         // core index
  std::vector<int> host_index_of_node_;    // NodeId.index -> global host idx
};

/// Human-readable switch names used by the builders, e.g. "E[2,1]".
[[nodiscard]] std::string edge_name(int pod, int j);
[[nodiscard]] std::string agg_name(int pod, int j);
[[nodiscard]] std::string core_name(int c);
[[nodiscard]] std::string host_name(int global_index);

}  // namespace sbk::topo
