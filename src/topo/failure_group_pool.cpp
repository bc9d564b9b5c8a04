#include "topo/failure_group_pool.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace sbk::topo {

int FailureGroupPool::add_group(int slots, int spares) {
  SBK_EXPECTS(slots > 0 && spares >= 0);
  const int index = group_count();
  Group g;
  g.spares = spares;
  auto allocate = [&](DeviceState state) {
    const DeviceUid uid = static_cast<DeviceUid>(state_.size());
    state_.push_back(state);
    group_of_.push_back(index);
    return uid;
  };
  for (int s = 0; s < slots; ++s) {
    g.assigned.push_back(allocate(DeviceState::kInService));
  }
  for (int b = 0; b < spares; ++b) {
    g.spare.push_back(allocate(DeviceState::kSpare));
  }
  total_spares_ += g.spare.size();
  groups_.push_back(std::move(g));
  return index;
}

FailureGroupPool::Group& FailureGroupPool::group(int index) {
  SBK_EXPECTS(index >= 0 && index < group_count());
  return groups_[static_cast<std::size_t>(index)];
}

const FailureGroupPool::Group& FailureGroupPool::group(int index) const {
  return const_cast<FailureGroupPool*>(this)->group(index);
}

int FailureGroupPool::slot_count(int index) const {
  return static_cast<int>(group(index).assigned.size());
}

int FailureGroupPool::provisioned_spares(int index) const {
  return group(index).spares;
}

DeviceUid FailureGroupPool::device_at(int index, int slot) const {
  const Group& g = group(index);
  SBK_EXPECTS(slot >= 0 && static_cast<std::size_t>(slot) < g.assigned.size());
  return g.assigned[static_cast<std::size_t>(slot)];
}

const std::vector<DeviceUid>& FailureGroupPool::spares(int index) const {
  return group(index).spare;
}

std::vector<DeviceUid> FailureGroupPool::all_spares() const {
  std::vector<DeviceUid> out;
  out.reserve(total_spares_);
  for (const Group& g : groups_) {
    out.insert(out.end(), g.spare.begin(), g.spare.end());
  }
  return out;
}

DeviceState FailureGroupPool::state(DeviceUid uid) const {
  SBK_EXPECTS(uid < state_.size());
  return state_[uid];
}

int FailureGroupPool::group_of(DeviceUid uid) const {
  SBK_EXPECTS(uid < group_of_.size());
  return group_of_[uid];
}

int FailureGroupPool::slot_of(DeviceUid uid) const {
  if (state(uid) != DeviceState::kInService) return -1;
  const std::vector<DeviceUid>& assigned = group(group_of_[uid]).assigned;
  auto it = std::find(assigned.begin(), assigned.end(), uid);
  SBK_ASSERT(it != assigned.end());
  return static_cast<int>(it - assigned.begin());
}

std::optional<FailureGroupPool::Failover> FailureGroupPool::fail_over(
    int index, int slot) {
  Group& g = group(index);
  SBK_EXPECTS(slot >= 0 && static_cast<std::size_t>(slot) < g.assigned.size());
  if (g.spare.empty()) return std::nullopt;
  DeviceUid& serving = g.assigned[static_cast<std::size_t>(slot)];
  const Failover f{serving, g.spare.front()};
  g.spare.erase(g.spare.begin());
  --total_spares_;
  serving = f.replacement;
  g.out.push_back(f.failed);
  state_[f.failed] = DeviceState::kOut;
  state_[f.replacement] = DeviceState::kInService;
  return f;
}

bool FailureGroupPool::return_to_pool(DeviceUid uid) {
  if (state(uid) == DeviceState::kSpare) return false;  // idempotent
  SBK_EXPECTS_MSG(state_[uid] == DeviceState::kOut,
                  "only out-of-service devices can return to the pool");
  Group& g = group(group_of_[uid]);
  auto it = std::find(g.out.begin(), g.out.end(), uid);
  SBK_ASSERT(it != g.out.end());
  g.out.erase(it);
  g.spare.push_back(uid);
  ++total_spares_;
  state_[uid] = DeviceState::kSpare;
  return true;
}

void FailureGroupPool::check_invariants() const {
  std::vector<std::uint8_t> seen(state_.size(), 0);
  std::size_t spares = 0;
  for (int index = 0; index < group_count(); ++index) {
    const Group& g = groups_[static_cast<std::size_t>(index)];
    auto check = [&](const std::vector<DeviceUid>& list, DeviceState want) {
      for (DeviceUid uid : list) {
        SBK_ENSURES(uid < state_.size() && seen[uid] == 0);
        seen[uid] = 1;
        SBK_ENSURES(state_[uid] == want);
        SBK_ENSURES(group_of_[uid] == index);
      }
    };
    check(g.assigned, DeviceState::kInService);
    check(g.spare, DeviceState::kSpare);
    check(g.out, DeviceState::kOut);
    SBK_ENSURES(g.spare.size() + g.out.size() ==
                static_cast<std::size_t>(g.spares));
    spares += g.spare.size();
  }
  SBK_ENSURES(spares == total_spares_);
  SBK_ENSURES(std::find(seen.begin(), seen.end(), 0) == seen.end());
}

FailureGroupPool make_fat_tree_pool(int k, int n_edge, int n_agg,
                                    int n_core) {
  SBK_EXPECTS_MSG(k >= 4 && k % 2 == 0, "k must be even and >= 4");
  FailureGroupPool pool;
  for (Layer layer : {Layer::kEdge, Layer::kAgg, Layer::kCore}) {
    const int n = layer == Layer::kEdge  ? n_edge
                  : layer == Layer::kAgg ? n_agg
                                         : n_core;
    for (int g = 0; g < failure_group_count(k, layer); ++g) {
      pool.add_group(k / 2, n);
    }
  }
  return pool;
}

}  // namespace sbk::topo
