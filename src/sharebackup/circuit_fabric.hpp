// What every ShareBackup fabric shares (§3, and §6 "with different plans
// for partitioning failure groups"): one failure-group pool of physical
// switches, the circuit switches between adjacent layers, and the cables
// from device interfaces to circuit-switch ports. A failover takes the
// group's oldest spare and re-points every live circuit of the failed
// device at it. Positions, wiring plans and names belong to the concrete
// fabric (Fabric for the fat-tree, LeafSpineFabric for leaf-spine).
//
// Device uids: the pool's switches first (group by group, slots then
// backups), then the hosts.
#pragma once

#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "net/ids.hpp"
#include "sharebackup/circuit_switch.hpp"
#include "sharebackup/device.hpp"
#include "topo/failure_group_pool.hpp"

namespace sbk::sharebackup {

class CircuitFabric {
 public:
  [[nodiscard]] const topo::FailureGroupPool& pool() const noexcept {
    return pool_;
  }
  [[nodiscard]] CircuitTechnology technology() const noexcept {
    return technology_;
  }

  [[nodiscard]] std::size_t circuit_switch_count() const noexcept {
    return switches_.size();
  }
  [[nodiscard]] const CircuitSwitch& circuit_switch(std::size_t idx) const;
  [[nodiscard]] CircuitSwitch& circuit_switch(std::size_t idx);

  /// Pooled switches plus hosts.
  [[nodiscard]] std::size_t device_count() const noexcept {
    return device_ports_.size();
  }
  /// Pooled switches only (uids 0..switch_device_count()-1).
  [[nodiscard]] std::size_t switch_device_count() const noexcept {
    return pool_.device_count();
  }
  [[nodiscard]] bool is_host(DeviceUid uid) const;
  /// A switch's pool state; hosts are always in service.
  [[nodiscard]] DeviceState device_state(DeviceUid uid) const;

  /// Circuit switches a device is cabled to, with its port on each.
  struct DevicePort {
    std::size_t cs;
    int port;
  };
  [[nodiscard]] const std::vector<DevicePort>& ports_of_device(
      DeviceUid uid) const;
  /// The device's port on the given circuit switch (it must be cabled).
  [[nodiscard]] int device_port_on(DeviceUid uid, std::size_t cs) const;

  /// Cross-checks circuit matchings, the pool's accounting, and that no
  /// spare holds a live circuit. Throws ContractViolation on breakage.
  void check_invariants() const;

 protected:
  CircuitFabric(topo::FailureGroupPool pool, CircuitTechnology technology);

  /// Adds `count` host devices after the pooled switches; returns the
  /// first host's uid. Hosts never fail over.
  DeviceUid add_hosts(int count);
  [[nodiscard]] DeviceUid first_host() const noexcept {
    return static_cast<DeviceUid>(pool_.device_count());
  }
  /// Cables interface `iface` of `dev` to port (cls, slot) of switch `cs`.
  void attach(std::size_t cs, PortClass cls, int slot, DeviceUid dev,
              int iface);
  /// Cables interface `iface` of every slot device of pool group `group`
  /// to the regular ports of one side of `cs`, and of every backup to
  /// that side's backup ports. Build time only (spares in initial order).
  void attach_group(std::size_t cs, bool north, int group, int iface);
  /// Chains circuit switches first..first+count-1 into a side-port ring.
  void chain_ring(std::size_t first, int count);
  /// Matches south regular port a of `cs` to north regular port
  /// (a + shift) mod regular_per_side: shift 0 is straight-through, and
  /// shift m on the m-th switch of a row joins every south device to
  /// every north device across the row (Fig. 3(b)).
  void wire_rotation(std::size_t cs, int shift);

  struct Swap {
    DeviceUid failed = kNoDeviceUid;
    DeviceUid replacement = kNoDeviceUid;
    /// Circuit switches whose matching changed (reconfigured in parallel).
    std::size_t circuit_switches_touched = 0;
  };
  /// Swaps the group's oldest spare into `slot` and re-points the failed
  /// device's live circuits at it. nullopt when the pool is exhausted.
  [[nodiscard]] std::optional<Swap> swap_in_spare(int group, int slot);

  /// Node pairs joined by a device circuit, each circuit once, with
  /// `node_of` mapping a device to the node it serves (nullopt for a
  /// spare or out device). Side-port diagnosis circuits are not links.
  [[nodiscard]] std::vector<std::pair<net::NodeId, net::NodeId>>
  adjacency_of_circuits(
      const std::function<std::optional<net::NodeId>(DeviceUid)>& node_of)
      const;

  topo::FailureGroupPool pool_;
  std::vector<CircuitSwitch> switches_;

 private:
  CircuitTechnology technology_;
  std::vector<std::vector<DevicePort>> device_ports_;
};

}  // namespace sbk::sharebackup
