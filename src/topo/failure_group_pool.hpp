// The ShareBackup building block (§3): a failure group of switches that
// shares a pool of n backups. Every fabric built from it — the fat-tree
// fabric, the §6 leaf-spine fabric — and the §4.3 table walker read one
// FailureGroupPool: which physical device serves each slot of each
// group, which backups are idle, and which devices are out awaiting
// repair or exoneration.
//
// Groups are dense (0..group_count()-1); what a group and a slot mean is
// up to the topology (see topo::failure_group_index for the fat-tree
// order). Device uids are allocated group by group, the slots' devices
// first and then the backups, so a topology that adds its groups in a
// fixed order gets fixed uids.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "topo/position.hpp"

namespace sbk::topo {

/// Physical device handle, unique across one fabric.
using DeviceUid = std::uint32_t;
inline constexpr DeviceUid kNoDeviceUid = static_cast<DeviceUid>(-1);

/// Where a physical device currently stands.
enum class DeviceState : std::uint8_t {
  kInService,  ///< serving a slot
  kSpare,      ///< idle backup, available for failover
  kOut,        ///< failed / taken offline, awaiting repair or exoneration
};

class FailureGroupPool {
 public:
  /// Appends a failure group of `slots` in-service devices and `spares`
  /// provisioned backups and allocates their uids. Returns its index.
  int add_group(int slots, int spares);

  [[nodiscard]] int group_count() const noexcept {
    return static_cast<int>(groups_.size());
  }
  /// Pooled devices (slots and backups) across all groups.
  [[nodiscard]] std::size_t device_count() const noexcept {
    return state_.size();
  }
  [[nodiscard]] int slot_count(int group) const;
  [[nodiscard]] int provisioned_spares(int group) const;

  /// Device currently serving `slot` of `group`.
  [[nodiscard]] DeviceUid device_at(int group, int slot) const;
  /// Idle backups of a group, oldest first (fail_over takes the front).
  [[nodiscard]] const std::vector<DeviceUid>& spares(int group) const;
  /// Every idle backup, by group.
  [[nodiscard]] std::vector<DeviceUid> all_spares() const;
  [[nodiscard]] std::size_t total_spares() const noexcept {
    return total_spares_;
  }

  [[nodiscard]] DeviceState state(DeviceUid uid) const;
  [[nodiscard]] int group_of(DeviceUid uid) const;
  /// Slot an in-service device serves; -1 for a spare or out device.
  [[nodiscard]] int slot_of(DeviceUid uid) const;

  struct Failover {
    DeviceUid failed = kNoDeviceUid;
    DeviceUid replacement = kNoDeviceUid;
  };
  /// Moves the group's oldest spare into `slot`; the replaced device
  /// goes out. Returns nullopt when the group's pool is exhausted.
  [[nodiscard]] std::optional<Failover> fail_over(int group, int slot);

  /// Puts an out device back among its group's spares (after repair or
  /// exoneration) — the paper's "replaced switches become backups".
  /// Idempotent: returning a device that is already a spare is a no-op
  /// (returns false), so a duplicated control command cannot corrupt
  /// the pool. An in-service device is a contract violation.
  bool return_to_pool(DeviceUid uid);

  /// Accounting check: every device sits in exactly one list of its own
  /// group with the matching state, and each group's spares plus out
  /// devices equal its provisioned backups. Throws ContractViolation.
  void check_invariants() const;

 private:
  struct Group {
    int spares = 0;                   ///< provisioned backups
    std::vector<DeviceUid> assigned;  ///< by slot
    std::vector<DeviceUid> spare;
    std::vector<DeviceUid> out;
  };

  [[nodiscard]] Group& group(int index);
  [[nodiscard]] const Group& group(int index) const;

  std::vector<Group> groups_;
  std::vector<DeviceState> state_;
  std::vector<int> group_of_;
  std::size_t total_spares_ = 0;
};

/// The pool of a k-ary fat-tree's 5k/2 failure groups (Table 1), in
/// failure_group_index order, k/2 slots each; `n_edge`, `n_agg` and
/// `n_core` backups per edge, agg and core group (§6 allows them to
/// differ).
[[nodiscard]] FailureGroupPool make_fat_tree_pool(int k, int n_edge,
                                                  int n_agg, int n_core);

}  // namespace sbk::topo
