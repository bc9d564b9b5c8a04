// Physical devices of the ShareBackup fabrics (fat-tree and leaf-spine).
// Uids and lifecycle states belong to topo::FailureGroupPool, the one
// spare-pool type every fabric and the §4.3 table walker share; the
// aliases here keep the sharebackup:: spellings.
#pragma once

#include <string>

#include "topo/failure_group_pool.hpp"
#include "topo/position.hpp"

namespace sbk::sharebackup {

using topo::DeviceState;
using topo::DeviceUid;
using topo::kNoDeviceUid;

/// A physical box: a packet switch (possibly a backup) or a host.
struct PhysicalDevice {
  DeviceUid uid = kNoDeviceUid;
  bool is_host = false;
  topo::Layer layer = topo::Layer::kEdge;  ///< meaningless for hosts
  int group = -1;                          ///< failure group id; -1 for hosts
  std::string name;
};

}  // namespace sbk::sharebackup
