#include "sharebackup/circuit_fabric.hpp"

#include "util/assert.hpp"

namespace sbk::sharebackup {

CircuitFabric::CircuitFabric(topo::FailureGroupPool pool,
                             CircuitTechnology technology)
    : pool_(std::move(pool)),
      technology_(technology),
      device_ports_(pool_.device_count()) {}

DeviceUid CircuitFabric::add_hosts(int count) {
  SBK_EXPECTS(count >= 0);
  SBK_EXPECTS_MSG(device_ports_.size() == pool_.device_count(),
                  "hosts are added once, after the pooled switches");
  device_ports_.resize(device_ports_.size() + static_cast<std::size_t>(count));
  return first_host();
}

const CircuitSwitch& CircuitFabric::circuit_switch(std::size_t idx) const {
  SBK_EXPECTS(idx < switches_.size());
  return switches_[idx];
}

CircuitSwitch& CircuitFabric::circuit_switch(std::size_t idx) {
  SBK_EXPECTS(idx < switches_.size());
  return switches_[idx];
}

bool CircuitFabric::is_host(DeviceUid uid) const {
  SBK_EXPECTS(uid < device_ports_.size());
  return uid >= first_host();
}

DeviceState CircuitFabric::device_state(DeviceUid uid) const {
  return is_host(uid) ? DeviceState::kInService : pool_.state(uid);
}

const std::vector<CircuitFabric::DevicePort>& CircuitFabric::ports_of_device(
    DeviceUid uid) const {
  SBK_EXPECTS(uid < device_ports_.size());
  return device_ports_[uid];
}

int CircuitFabric::device_port_on(DeviceUid uid, std::size_t cs) const {
  for (const DevicePort& dp : ports_of_device(uid)) {
    if (dp.cs == cs) return dp.port;
  }
  SBK_EXPECTS_MSG(false, "device is not cabled to that circuit switch");
  return -1;
}

void CircuitFabric::attach(std::size_t cs, PortClass cls, int slot,
                           DeviceUid dev, int iface) {
  CircuitSwitch& sw = switches_[cs];
  const int port = sw.port(cls, slot);
  sw.attach_device(port, dev, iface);
  device_ports_[dev].push_back(DevicePort{cs, port});
}

void CircuitFabric::attach_group(std::size_t cs, bool north, int group,
                                 int iface) {
  for (int s = 0; s < pool_.slot_count(group); ++s) {
    attach(cs, north ? PortClass::kNorthRegular : PortClass::kSouthRegular,
           s, pool_.device_at(group, s), iface);
  }
  const std::vector<DeviceUid>& spares = pool_.spares(group);
  for (std::size_t b = 0; b < spares.size(); ++b) {
    attach(cs, north ? PortClass::kNorthBackup : PortClass::kSouthBackup,
           static_cast<int>(b), spares[b], iface);
  }
}

void CircuitFabric::wire_rotation(std::size_t cs, int shift) {
  CircuitSwitch& sw = switches_[cs];
  const int count = sw.regular_per_side();
  for (int a = 0; a < count; ++a) {
    sw.connect(sw.port(PortClass::kSouthRegular, a),
               sw.port(PortClass::kNorthRegular, (a + shift) % count));
  }
}

void CircuitFabric::chain_ring(std::size_t first, int count) {
  if (count < 2) return;  // a ring needs at least two members
  for (int m = 0; m < count; ++m) {
    const std::size_t a = first + static_cast<std::size_t>(m);
    const std::size_t b = first + static_cast<std::size_t>((m + 1) % count);
    const int right = switches_[a].port(PortClass::kSideRight);
    const int left = switches_[b].port(PortClass::kSideLeft);
    switches_[a].attach_side(right, static_cast<int>(b), left);
    switches_[b].attach_side(left, static_cast<int>(a), right);
  }
}

std::optional<CircuitFabric::Swap> CircuitFabric::swap_in_spare(int group,
                                                                int slot) {
  std::optional<topo::FailureGroupPool::Failover> f =
      pool_.fail_over(group, slot);
  if (!f.has_value()) return std::nullopt;
  Swap swap{f->failed, f->replacement, 0};
  for (const DevicePort& dp : device_ports_[f->failed]) {
    CircuitSwitch& sw = switches_[dp.cs];
    std::optional<int> peer = sw.peer(dp.port);
    if (!peer.has_value()) continue;
    const int spare_port = device_port_on(f->replacement, dp.cs);
    SBK_ASSERT_MSG(!sw.is_matched(spare_port),
                   "spare device ports must be idle before failover");
    sw.disconnect(dp.port);
    sw.connect(spare_port, *peer);
    ++swap.circuit_switches_touched;
  }
  return swap;
}

std::vector<std::pair<net::NodeId, net::NodeId>>
CircuitFabric::adjacency_of_circuits(
    const std::function<std::optional<net::NodeId>(DeviceUid)>& node_of)
    const {
  std::vector<std::pair<net::NodeId, net::NodeId>> out;
  for (const CircuitSwitch& sw : switches_) {
    for (int p = 0; p < sw.port_count(); ++p) {
      std::optional<int> q = sw.peer(p);
      if (!q.has_value() || *q < p) continue;  // count each circuit once
      const Attachment& pa = sw.attachment(p);
      const Attachment& qa = sw.attachment(*q);
      if (pa.kind != Attachment::Kind::kDeviceInterface ||
          qa.kind != Attachment::Kind::kDeviceInterface) {
        continue;  // diagnosis circuits through side ports are not links
      }
      std::optional<net::NodeId> a = node_of(pa.device);
      std::optional<net::NodeId> b = node_of(qa.device);
      if (a.has_value() && b.has_value()) out.emplace_back(*a, *b);
    }
  }
  return out;
}

void CircuitFabric::check_invariants() const {
  for (const CircuitSwitch& sw : switches_) {
    SBK_ENSURES(sw.matching_is_consistent());
  }
  pool_.check_invariants();
  for (DeviceUid uid : pool_.all_spares()) {
    for (const DevicePort& dp : device_ports_[uid]) {
      SBK_ENSURES(!switches_[dp.cs].is_matched(dp.port));
    }
  }
}

}  // namespace sbk::sharebackup
