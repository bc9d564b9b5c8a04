// Logical switch positions and ShareBackup failure-group geometry (§3).
// A *position* is a slot in the fat-tree wiring (edge (pod,j), agg
// (pod,j), or core c). Positions never fail; the physical devices serving
// them do, and ShareBackup swaps devices under positions.
//
// Failure groups (Table 1):
//   * FG_{1,pod}: the k/2 edge switches of a pod;
//   * FG_{2,pod}: the k/2 aggregation switches of a pod;
//   * FG_{3,u}:  the k/2 core switches with index ≡ u (mod k/2) — they
//     share circuit switches because agg j connects to cores
//     j*k/2 .. j*k/2+k/2-1 in consecutive order, and the m-th layer-3
//     circuit switch of every pod serves the cores ≡ m (mod k/2).
#pragma once

#include <cstdint>

#include "util/assert.hpp"

namespace sbk::topo {

/// Switch layer, mirroring the paper's circuit-switch layers l = 1,2,3
/// (below the named layer).
enum class Layer : std::uint8_t { kEdge, kAgg, kCore };

[[nodiscard]] constexpr const char* to_string(Layer l) noexcept {
  switch (l) {
    case Layer::kEdge: return "edge";
    case Layer::kAgg: return "agg";
    case Layer::kCore: return "core";
  }
  return "?";
}

/// A logical switch position in a k-ary fat-tree.
struct SwitchPosition {
  Layer layer = Layer::kEdge;
  int pod = -1;   ///< pod for edge/agg; -1 for core
  int index = 0;  ///< in-pod index for edge/agg; global index for core

  friend constexpr bool operator==(SwitchPosition,
                                   SwitchPosition) noexcept = default;
};

/// Failure-group id of a position: the pod for edge/agg groups, the core
/// index mod k/2 for core groups.
[[nodiscard]] inline int failure_group_of(int k, SwitchPosition pos) {
  switch (pos.layer) {
    case Layer::kEdge:
    case Layer::kAgg:
      SBK_EXPECTS(pos.pod >= 0 && pos.pod < k);
      return pos.pod;
    case Layer::kCore:
      SBK_EXPECTS(pos.index >= 0 && pos.index < (k / 2) * (k / 2));
      return pos.index % (k / 2);
  }
  SBK_UNREACHABLE("bad layer");
}

/// Slot of a position within its failure group, in [0, k/2).
[[nodiscard]] inline int group_slot_of(int k, SwitchPosition pos) {
  switch (pos.layer) {
    case Layer::kEdge:
    case Layer::kAgg:
      SBK_EXPECTS(pos.index >= 0 && pos.index < k / 2);
      return pos.index;
    case Layer::kCore:
      return pos.index / (k / 2);
  }
  SBK_UNREACHABLE("bad layer");
}

/// Number of failure groups on a layer: k pods for edge/agg, k/2 for
/// core. Total = 5k/2 (paper §5.2).
[[nodiscard]] inline int failure_group_count(int k, Layer layer) {
  return layer == Layer::kCore ? k / 2 : k;
}

/// Dense index of failure group `group` of `layer` across all layers:
/// the k edge groups (by pod), then the k agg groups, then the k/2 core
/// groups. This is the group order of a fat-tree FailureGroupPool.
[[nodiscard]] inline int failure_group_index(int k, Layer layer, int group) {
  SBK_EXPECTS(group >= 0 && group < failure_group_count(k, layer));
  switch (layer) {
    case Layer::kEdge: return group;
    case Layer::kAgg: return k + group;
    case Layer::kCore: return 2 * k + group;
  }
  SBK_UNREACHABLE("bad layer");
}

[[nodiscard]] inline int failure_group_index(int k, SwitchPosition pos) {
  return failure_group_index(k, pos.layer, failure_group_of(k, pos));
}

/// A failure group named by layer and per-layer id.
struct FailureGroupId {
  Layer layer = Layer::kEdge;
  int id = 0;
};

/// Inverse of failure_group_index.
[[nodiscard]] inline FailureGroupId failure_group_at(int k, int index) {
  SBK_EXPECTS(index >= 0 && index < 2 * k + k / 2);
  if (index < k) return {Layer::kEdge, index};
  if (index < 2 * k) return {Layer::kAgg, index - k};
  return {Layer::kCore, index - 2 * k};
}

/// The position that `slot` of dense failure group `index` serves
/// (inverse of failure_group_index + group_slot_of).
[[nodiscard]] inline SwitchPosition position_in_group(int k, int index,
                                                      int slot) {
  const FailureGroupId g = failure_group_at(k, index);
  SBK_EXPECTS(slot >= 0 && slot < k / 2);
  if (g.layer == Layer::kCore) {
    return SwitchPosition{Layer::kCore, -1, slot * (k / 2) + g.id};
  }
  return SwitchPosition{g.layer, g.id, slot};
}

}  // namespace sbk::topo
