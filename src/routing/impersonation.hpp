// Live impersonation of failed switches (§4.3): every physical switch in
// a failure group preloads the group's routing state, so a backup brought
// online by circuit reconfiguration forwards correctly immediately — no
// rule installation on the critical path.
//
//   * Edge failure group (a pod's k/2 edges): the *combined* table —
//     the k/2 shared in-bound entries plus the k^2/4 VLAN-tagged
//     out-bound entries of all edges in the pod.
//   * Aggregation failure group (a pod's k/2 aggs): the pod's common
//     aggregation table.
//   * Core failure group: the common core table.
//
// The store holds one preloaded table per failure group. Which device
// serves each position lives in a topo::FailureGroupPool — standalone in
// tests, or the fabric's own pool (sharebackup::Fabric::pool()) under a
// controller — and ForwardingSim walks packets through logical
// positions consulting the table of the device *currently* at each
// position. Tests verify that forwarding is invariant under arbitrary
// sequences of failovers.
#pragma once

#include <vector>

#include "routing/two_level.hpp"
#include "topo/failure_group_pool.hpp"
#include "topo/position.hpp"

namespace sbk::routing {

using topo::DeviceUid;
using topo::Layer;
using topo::SwitchPosition;

/// The §4.3 preloaded tables of every failure group of a k-ary fat-tree,
/// by dense group index (topo::failure_group_index order).
class ImpersonationStore {
 public:
  explicit ImpersonationStore(int k);

  [[nodiscard]] int k() const noexcept { return k_; }

  /// Preloaded table of one failure group (dense index).
  [[nodiscard]] const TwoLevelTable& group_table(int group_index) const;
  /// Preloaded table of the device `pool` holds as `dev`: every device of
  /// a group, backups included, holds the same group-wide table.
  [[nodiscard]] const TwoLevelTable& table_of(
      const topo::FailureGroupPool& pool, DeviceUid dev) const {
    return group_table(pool.group_of(dev));
  }

 private:
  int k_;
  std::vector<TwoLevelTable> tables_;
};

/// Result of walking one packet through the fabric.
struct ForwardingTrace {
  bool delivered = false;
  /// Positions visited, edge ingress to edge egress (switch hops only).
  std::vector<SwitchPosition> positions;
  /// Devices that served each position at walk time.
  std::vector<DeviceUid> devices;

  [[nodiscard]] std::size_t switch_hops() const noexcept {
    return positions.size();
  }
};

/// Packet walker over logical positions + current device tables. Uses the
/// plain-wiring adjacency (edge j <-> every agg; agg a <-> cores
/// a*k/2..a*k/2+k/2-1; core row r <-> agg r of every pod).
class ForwardingSim {
 public:
  /// `pool` must be a fat-tree pool of the store's k (make_fat_tree_pool
  /// or Fabric::pool()); both must outlive the walker.
  ForwardingSim(const ImpersonationStore& tables,
                const topo::FailureGroupPool& pool);

  /// Walks a packet from src to dst. Hosts tag packets with their edge
  /// position's VLAN (the position index, not the device).
  [[nodiscard]] ForwardingTrace walk(HostAddr src, HostAddr dst) const;

 private:
  const ImpersonationStore* tables_;
  const topo::FailureGroupPool* pool_;
};

}  // namespace sbk::routing
