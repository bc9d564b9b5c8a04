#include "sharebackup/fabric.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/log.hpp"

namespace sbk::sharebackup {

namespace {
std::string cs_name(int cs_layer, int pod, int m) {
  return "CS[" + std::to_string(cs_layer) + ',' + std::to_string(pod) + ',' +
         std::to_string(m) + ']';
}
}  // namespace

Fabric::Fabric(const FabricParams& params)
    : CircuitFabric(topo::make_fat_tree_pool(
                        params.fat_tree.k, params.backups_for(Layer::kEdge),
                        params.backups_for(Layer::kAgg),
                        params.backups_for(Layer::kCore)),
                    params.technology),
      params_(params),
      ft_(params.fat_tree) {
  SBK_EXPECTS_MSG(params_.fat_tree.wiring == topo::Wiring::kPlain,
                  "ShareBackup builds on the plain-wired fat-tree");
  SBK_EXPECTS(params_.backups_per_group >= 0);
  build_devices();
  build_circuit_switches();
  wire_defaults();
  check_invariants();
}

void Fabric::build_devices() {
  // The pool allocated the switch uids group by group (slots, then
  // backups); hosts follow as non-replaceable devices so layer-1 cables
  // have endpoints.
  auto add = [this](bool is_host, Layer layer, int grp, std::string name) {
    const auto uid = static_cast<DeviceUid>(devices_.size());
    devices_.push_back(PhysicalDevice{uid, is_host, layer, grp, std::move(name)});
  };
  for (int g = 0; g < pool_.group_count(); ++g) {
    const topo::FailureGroupId id = topo::failure_group_at(k(), g);
    const std::string tag = std::string("-") + topo::to_string(id.layer) +
                            '-' + std::to_string(id.id) + '-';
    for (int s = 0; s < pool_.slot_count(g); ++s) {
      add(false, id.layer, id.id, "SW" + tag + std::to_string(s));
    }
    for (int b = 0; b < pool_.provisioned_spares(g); ++b) {
      add(false, id.layer, id.id, "BS" + tag + std::to_string(b));
    }
  }
  const DeviceUid first = add_hosts(ft_.host_count());
  SBK_ASSERT(first == devices_.size());
  for (int h = 0; h < ft_.host_count(); ++h) {
    add(true, Layer::kEdge, -1, "HOST-" + std::to_string(h));
  }
}

std::size_t Fabric::cs_index(int cs_layer, int pod, int m) const {
  const int k = ft_.k();
  const int half = ft_.half_k();
  const int hpe = static_cast<int>(cs_layer1_per_pod_);
  SBK_EXPECTS(pod >= 0 && pod < k);
  switch (cs_layer) {
    case 1:
      SBK_EXPECTS(m >= 0 && m < hpe);
      return static_cast<std::size_t>(pod) * hpe + m;
    case 2:
      SBK_EXPECTS(m >= 0 && m < half);
      return static_cast<std::size_t>(k) * hpe +
             static_cast<std::size_t>(pod) * half + m;
    case 3:
      SBK_EXPECTS(m >= 0 && m < half);
      return static_cast<std::size_t>(k) * hpe +
             static_cast<std::size_t>(k) * half +
             static_cast<std::size_t>(pod) * half + m;
    default:
      SBK_UNREACHABLE("circuit-switch layer must be 1, 2, or 3");
  }
}

void Fabric::build_circuit_switches() {
  const int k = ft_.k();
  const int half = ft_.half_k();
  const int hpe = ft_.hosts_per_edge();
  const int n_edge = params_.backups_for(Layer::kEdge);
  const int n_agg = params_.backups_for(Layer::kAgg);
  const int n_core = params_.backups_for(Layer::kCore);
  cs_layer1_per_pod_ = static_cast<std::size_t>(hpe);

  // Interface index conventions per device:
  //   edge:  0..hpe-1 down (one per layer-1 CS), hpe..hpe+half-1 up;
  //   agg:   0..half-1 down, half..k-1 up;
  //   core:  0..k-1, one per pod;
  //   host:  0 (single NIC).
  switches_.reserve(static_cast<std::size_t>(k) * (hpe + 2 * half));
  for (int pod = 0; pod < k; ++pod) {
    for (int m = 0; m < hpe; ++m) {
      // South side: hosts (no backups exist, ports kept for symmetry).
      switches_.emplace_back(cs_name(1, pod, m), half, n_edge, n_edge);
    }
  }
  for (int pod = 0; pod < k; ++pod) {
    for (int m = 0; m < half; ++m) {
      switches_.emplace_back(cs_name(2, pod, m), half, n_edge, n_agg);
    }
  }
  for (int pod = 0; pod < k; ++pod) {
    for (int m = 0; m < half; ++m) {
      switches_.emplace_back(cs_name(3, pod, m), half, n_agg, n_core);
    }
  }

  const DeviceUid hosts = first_host();
  for (int pod = 0; pod < k; ++pod) {
    // Layer 1: hosts (south) <-> edge switches (north). South backup
    // ports stay uncabled: there are no backup hosts.
    for (int m = 0; m < hpe; ++m) {
      std::size_t cs = cs_index(1, pod, m);
      for (int j = 0; j < half; ++j) {
        attach(cs, PortClass::kSouthRegular, j,
               hosts + static_cast<DeviceUid>((pod * half + j) * hpe + m), 0);
      }
      attach_group(cs, true, pool_group(Layer::kEdge, pod), m);
    }
    // Layer 2: edges (south) <-> aggs (north).
    for (int m = 0; m < half; ++m) {
      std::size_t cs = cs_index(2, pod, m);
      attach_group(cs, false, pool_group(Layer::kEdge, pod), hpe + m);
      attach_group(cs, true, pool_group(Layer::kAgg, pod), m);
    }
    // Layer 3: aggs (south) <-> cores (north). The m-th switch serves the
    // core failure group m (cores ≡ m mod k/2).
    for (int m = 0; m < half; ++m) {
      std::size_t cs = cs_index(3, pod, m);
      attach_group(cs, false, pool_group(Layer::kAgg, pod), half + m);
      attach_group(cs, true, pool_group(Layer::kCore, m), pod);
    }
  }

  // Side-port rings: chain the circuit switches of each (layer, pod).
  for (int pod = 0; pod < k; ++pod) {
    chain_ring(cs_index(1, pod, 0), hpe);
    chain_ring(cs_index(2, pod, 0), half);
    chain_ring(cs_index(3, pod, 0), half);
  }

  iface_unhealthy_.resize(device_count());
  for (DeviceUid uid = 0; uid < device_count(); ++uid) {
    iface_unhealthy_[uid].assign(ports_of_device(uid).size(), 0);
  }
}

void Fabric::wire_defaults() {
  for (int pod = 0; pod < k(); ++pod) {
    for (int m = 0; m < ft_.hosts_per_edge(); ++m) {
      wire_rotation(cs_index(1, pod, m), 0);
    }
    for (int m = 0; m < half_k(); ++m) {
      // Rotation by m realizes the complete bipartite pod wiring.
      wire_rotation(cs_index(2, pod, m), m);
      wire_rotation(cs_index(3, pod, m), 0);
    }
  }
}

net::NodeId Fabric::node_at(SwitchPosition pos) const {
  switch (pos.layer) {
    case Layer::kEdge: return ft_.edge(pos.pod, pos.index);
    case Layer::kAgg: return ft_.agg(pos.pod, pos.index);
    case Layer::kCore: return ft_.core(pos.index);
  }
  SBK_UNREACHABLE("bad layer");
}

std::optional<SwitchPosition> Fabric::position_of_node(
    net::NodeId node) const {
  const net::Node& n = network().node(node);
  switch (n.kind) {
    case net::NodeKind::kEdgeSwitch:
      return SwitchPosition{Layer::kEdge, n.pod, n.index};
    case net::NodeKind::kAggSwitch:
      return SwitchPosition{Layer::kAgg, n.pod, n.index};
    case net::NodeKind::kCoreSwitch:
      return SwitchPosition{Layer::kCore, -1, n.index};
    case net::NodeKind::kHost:
      return std::nullopt;
  }
  SBK_UNREACHABLE("bad node kind");
}

DeviceUid Fabric::device_at(SwitchPosition pos) const {
  return pool_.device_at(topo::failure_group_index(k(), pos),
                         topo::group_slot_of(k(), pos));
}

const PhysicalDevice& Fabric::device(DeviceUid uid) const {
  SBK_EXPECTS(uid < devices_.size());
  return devices_[uid];
}

std::vector<DeviceUid> Fabric::spares(Layer layer, int grp) const {
  return pool_.spares(pool_group(layer, grp));
}

std::vector<DeviceUid> Fabric::switch_devices() const {
  std::vector<DeviceUid> out;
  for (net::NodeId sw : ft_.all_switches()) {
    auto pos = position_of_node(sw);
    SBK_ASSERT(pos.has_value());
    out.push_back(device_at(*pos));
  }
  const std::vector<DeviceUid> pooled = all_spares();
  out.insert(out.end(), pooled.begin(), pooled.end());
  return out;
}

std::optional<SwitchPosition> Fabric::position_of_device(
    DeviceUid uid) const {
  if (is_host(uid) || pool_.state(uid) != DeviceState::kInService) {
    return std::nullopt;
  }
  return topo::position_in_group(k(), pool_.group_of(uid),
                                 pool_.slot_of(uid));
}

DeviceUid Fabric::device_of_host(net::NodeId host) const {
  return first_host() + static_cast<DeviceUid>(ft_.host_global_index(host));
}

bool Fabric::interface_healthy(InterfaceRef iface) const {
  // iface_key's checked pack is still the contract gate for oversized
  // cs values (see the header note), even though the flat storage no
  // longer consumes the key for cabled ports.
  const std::uint64_t key = iface_key(iface);
  if (iface.device < device_count()) {
    const std::vector<DevicePort>& ports = ports_of_device(iface.device);
    for (std::size_t i = 0; i < ports.size(); ++i) {
      if (ports[i].cs == iface.cs) return !iface_unhealthy_[iface.device][i];
    }
  }
  return std::find(uncabled_unhealthy_.begin(), uncabled_unhealthy_.end(),
                   key) == uncabled_unhealthy_.end();
}

void Fabric::set_interface_health(InterfaceRef iface, bool healthy) {
  SBK_EXPECTS(iface.cs < circuit_switch_count());
  const std::vector<DevicePort>& ports = ports_of_device(iface.device);
  for (std::size_t i = 0; i < ports.size(); ++i) {
    if (ports[i].cs == iface.cs) {
      iface_unhealthy_[iface.device][i] = healthy ? 0 : 1;
      return;
    }
  }
  const std::uint64_t key = iface_key(iface);
  auto it = std::find(uncabled_unhealthy_.begin(), uncabled_unhealthy_.end(),
                      key);
  if (healthy) {
    if (it != uncabled_unhealthy_.end()) uncabled_unhealthy_.erase(it);
  } else if (it == uncabled_unhealthy_.end()) {
    uncabled_unhealthy_.push_back(key);
  }
}

bool Fabric::fail_link_at_interface(net::LinkId link, int bad_side) {
  net::Network& net = network();
  const net::Link& l = net.link(link);
  if (net.link_failed(link) || net.node_failed(l.a) || net.node_failed(l.b)) {
    return false;
  }
  auto pos = position_of_node(bad_side == 0 ? l.a : l.b);
  SBK_ASSERT(pos.has_value());
  set_interface_health({device_at(*pos), cs_of_link(link)}, false);
  net.fail_link(link);
  return true;
}

void Fabric::heal_device(DeviceUid uid) {
  for (const DevicePort& dp : ports_of_device(uid)) {
    set_interface_health(InterfaceRef{uid, dp.cs}, true);
  }
}

bool Fabric::device_interfaces_healthy(DeviceUid uid) const {
  for (const DevicePort& dp : ports_of_device(uid)) {
    if (!interface_healthy(InterfaceRef{uid, dp.cs})) return false;
  }
  return true;
}

void Fabric::attach_metrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    m_failovers_ = m_reconfigurations_ = m_pool_returns_ = nullptr;
    m_spare_pool_ = nullptr;
    return;
  }
  m_failovers_ = &metrics->counter("fabric.failovers");
  m_reconfigurations_ = &metrics->counter("fabric.circuit_reconfigurations");
  m_pool_returns_ = &metrics->counter("fabric.pool_returns");
  m_spare_pool_ = &metrics->gauge("fabric.spare_pool");
  m_spare_pool_->set(static_cast<double>(total_spares()));
}

std::optional<Fabric::FailoverReport> Fabric::fail_over(SwitchPosition pos) {
  std::optional<Swap> swap = swap_in_spare(
      topo::failure_group_index(k(), pos), topo::group_slot_of(k(), pos));
  if (!swap.has_value()) return std::nullopt;
  const FailoverReport report{pos, swap->failed, swap->replacement,
                              swap->circuit_switches_touched,
                              reconfiguration_latency(technology())};
  const std::string& failed = devices_[report.failed_device].name;
  const std::string& spare = devices_[report.replacement].name;

  // The position is now served by healthy hardware: bring its node back.
  network().restore_node(node_at(pos));
  if (m_failovers_) m_failovers_->add();
  if (m_reconfigurations_) {
    m_reconfigurations_->add(report.circuit_switches_touched);
  }
  if (m_spare_pool_) m_spare_pool_->set(static_cast<double>(total_spares()));
  if (recorder_ != nullptr && recorder_->enabled()) {
    recorder_->instant("fabric", "failover", trace_now_,
                       failed + " -> " + spare);
    recorder_->counter("fabric", "spare_pool", trace_now_,
                       static_cast<double>(total_spares()));
  }
  SBK_LOG_INFO("fabric", "failover at " << failed << " -> " << spare << " ("
                                        << report.circuit_switches_touched
                                        << " circuit switches)");
  return report;
}

void Fabric::return_to_pool(DeviceUid uid) {
  if (!pool_.return_to_pool(uid)) return;  // already a spare
  if (m_pool_returns_) m_pool_returns_->add();
  if (m_spare_pool_) m_spare_pool_->set(static_cast<double>(total_spares()));
  if (recorder_ != nullptr && recorder_->enabled()) {
    recorder_->instant("fabric", "pool_return", trace_now_,
                       devices_[uid].name);
    recorder_->counter("fabric", "spare_pool", trace_now_,
                       static_cast<double>(total_spares()));
  }
}

std::size_t Fabric::cs_of_link(net::LinkId link) const {
  const net::Link& l = network().link(link);
  const net::Node& na = network().node(l.a);
  const net::Node& nb = network().node(l.b);
  const int half = half_k();
  const int hpe = ft_.hosts_per_edge();

  auto kinds = [&](net::NodeKind x, net::NodeKind y) {
    return (na.kind == x && nb.kind == y) || (na.kind == y && nb.kind == x);
  };
  if (kinds(net::NodeKind::kHost, net::NodeKind::kEdgeSwitch)) {
    const net::Node& host = na.kind == net::NodeKind::kHost ? na : nb;
    int global = host.index;
    return cs_index(1, global / (half * hpe), global % hpe);
  }
  if (kinds(net::NodeKind::kEdgeSwitch, net::NodeKind::kAggSwitch)) {
    const net::Node& e = na.kind == net::NodeKind::kEdgeSwitch ? na : nb;
    const net::Node& a = na.kind == net::NodeKind::kAggSwitch ? na : nb;
    SBK_ASSERT(e.pod == a.pod);
    // Rotation wiring: CS m joins edge e to agg (e+m) mod k/2.
    return cs_index(2, e.pod, (a.index - e.index + half) % half);
  }
  if (kinds(net::NodeKind::kAggSwitch, net::NodeKind::kCoreSwitch)) {
    const net::Node& a = na.kind == net::NodeKind::kAggSwitch ? na : nb;
    const net::Node& c = na.kind == net::NodeKind::kCoreSwitch ? na : nb;
    // Core c sits behind the (c mod k/2)-th layer-3 switch of each pod.
    return cs_index(3, a.pod, c.index % half);
  }
  SBK_EXPECTS_MSG(false, "link is not realized through a circuit switch");
  return 0;
}

std::optional<InterfaceRef> Fabric::trace_circuit(std::size_t cs,
                                                  int port) const {
  SBK_EXPECTS(cs < circuit_switch_count());
  // Bounded walk: a circuit can cross each ring switch at most once.
  std::size_t budget = 2 * switches_.size() + 4;
  std::size_t cur_cs = cs;
  int cur_port = port;
  while (budget-- > 0) {
    const CircuitSwitch& sw = switches_[cur_cs];
    std::optional<int> matched = sw.peer(cur_port);
    if (!matched.has_value()) return std::nullopt;  // open circuit
    const Attachment& a = sw.attachment(*matched);
    switch (a.kind) {
      case Attachment::Kind::kDeviceInterface:
        return InterfaceRef{a.device, cur_cs};
      case Attachment::Kind::kSidePeer:
        cur_cs = static_cast<std::size_t>(a.peer_cs);
        cur_port = a.peer_port;
        break;  // entered the neighbor switch; follow its matching
      case Attachment::Kind::kNone:
        return std::nullopt;  // matched into an uncabled port
    }
  }
  return std::nullopt;  // cycle with no device endpoint
}

bool Fabric::probe(InterfaceRef from) const {
  int port = device_port_on(from.device, from.cs);
  std::optional<InterfaceRef> far = trace_circuit(from.cs, port);
  if (!far.has_value()) return false;
  return interface_healthy(from) && interface_healthy(*far);
}

Fabric::Census Fabric::census() const {
  Census c;
  c.circuit_switches = switches_.size();
  for (const CircuitSwitch& sw : switches_) {
    c.circuit_switch_physical_ports += static_cast<std::size_t>(sw.port_count());
  }
  c.failure_groups = static_cast<std::size_t>(pool_.group_count());
  // Structural census counts devices *built* as backups (names "BS-..."),
  // independent of the current role rotation.
  for (const PhysicalDevice& d : devices_) {
    if (!d.is_host && d.name.rfind("BS-", 0) == 0) {
      ++c.backup_switches;
      c.backup_device_cables += ports_of_device(d.uid).size();
    }
  }
  return c;
}

std::vector<std::pair<net::NodeId, net::NodeId>> Fabric::realized_adjacency()
    const {
  return adjacency_of_circuits([this](DeviceUid uid)
                                   -> std::optional<net::NodeId> {
    if (is_host(uid)) return ft_.host(static_cast<int>(uid - first_host()));
    std::optional<SwitchPosition> pos = position_of_device(uid);
    if (!pos.has_value()) return std::nullopt;
    return node_at(*pos);
  });
}

}  // namespace sbk::sharebackup
