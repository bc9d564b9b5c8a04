#include "sharebackup/leaf_spine.hpp"

#include "util/assert.hpp"

namespace sbk::sharebackup {

namespace {
std::string ls_cs_name(int layer, int a, int b, int m) {
  return "LCS[" + std::to_string(layer) + ',' + std::to_string(a) + ',' +
         std::to_string(b) + ',' + std::to_string(m) + ']';
}
}  // namespace

topo::FailureGroupPool LeafSpineFabric::make_pool(
    const LeafSpineParams& params) {
  const int G = params.group_size;
  const int n = params.backups_per_group;
  SBK_EXPECTS_MSG(params.leaves > 0 && params.spines > 0 &&
                      params.hosts_per_leaf > 0 && G > 0 && n >= 0,
                  "leaf-spine parameters must be positive");
  SBK_EXPECTS_MSG(params.leaves % G == 0 && params.spines % G == 0,
                  "leaves and spines must partition into groups of G");
  topo::FailureGroupPool pool;
  for (int g = 0; g < (params.leaves + params.spines) / G; ++g) {
    pool.add_group(G, n);
  }
  return pool;
}

LeafSpineFabric::LeafSpineFabric(const LeafSpineParams& params)
    : CircuitFabric(make_pool(params), params.technology), params_(params) {
  const int L = params_.leaves;
  const int S = params_.spines;
  const int H = params_.hosts_per_leaf;
  const int G = params_.group_size;
  const int n = params_.backups_per_group;

  // --- packet network: positions ------------------------------------------
  for (int i = 0; i < L; ++i) {
    leaves_.push_back(net_.add_node(net::NodeKind::kEdgeSwitch,
                                    "LEAF" + std::to_string(i), i / G, i % G));
  }
  for (int i = 0; i < S; ++i) {
    spines_.push_back(net_.add_node(net::NodeKind::kCoreSwitch,
                                    "SPINE" + std::to_string(i), -1, i));
  }
  for (int i = 0; i < L * H; ++i) {
    hosts_.push_back(
        net_.add_node(net::NodeKind::kHost, "LH" + std::to_string(i),
                      (i / H) / G, i));
  }
  for (int i = 0; i < L * H; ++i) {
    net_.add_link(hosts_[static_cast<std::size_t>(i)],
                  leaves_[static_cast<std::size_t>(i / H)],
                  params_.host_link_capacity);
  }
  for (int l = 0; l < L; ++l) {
    for (int s = 0; s < S; ++s) {
      net_.add_link(leaves_[static_cast<std::size_t>(l)],
                    spines_[static_cast<std::size_t>(s)],
                    params_.fabric_link_capacity);
    }
  }

  const DeviceUid first_host_uid = add_hosts(L * H);

  // --- circuit switches ----------------------------------------------------
  // Layer 1: per leaf group, H switches (host slot m of each member).
  const int leaf_grp_count = L / G;
  const int spine_grp_count = S / G;
  for (int lg = 0; lg < leaf_grp_count; ++lg) {
    for (int m = 0; m < H; ++m) {
      switches_.emplace_back(ls_cs_name(1, lg, 0, m), G, n, n);
    }
  }
  // Layer 2: per (leaf group, spine group) pair, G switches.
  for (int lg = 0; lg < leaf_grp_count; ++lg) {
    for (int sg = 0; sg < spine_grp_count; ++sg) {
      for (int m = 0; m < G; ++m) {
        switches_.emplace_back(ls_cs_name(2, lg, sg, m), G, n, n);
      }
    }
  }

  // Interface indexing: leaf device — 0..H-1 down, H..H+S-1 up
  // (uplink index = sg*G + m); spine device — one interface per leaf
  // group column it meets, index = lg*G + m.
  for (int lg = 0; lg < leaf_grp_count; ++lg) {
    for (int m = 0; m < H; ++m) {
      std::size_t cs = cs_layer1(lg, m);
      for (int a = 0; a < G; ++a) {
        const int host_index = (lg * G + a) * H + m;
        attach(cs, PortClass::kSouthRegular, a,
               first_host_uid + static_cast<DeviceUid>(host_index), 0);
      }
      attach_group(cs, true, pool_group(LsTier::kLeaf, lg), m);
    }
  }
  for (int lg = 0; lg < leaf_grp_count; ++lg) {
    for (int sg = 0; sg < spine_grp_count; ++sg) {
      for (int m = 0; m < G; ++m) {
        std::size_t cs = cs_layer2(lg, sg, m);
        attach_group(cs, false, pool_group(LsTier::kLeaf, lg),
                     H + sg * G + m);
        attach_group(cs, true, pool_group(LsTier::kSpine, sg), lg * G + m);
      }
    }
  }

  // Side rings: layer-1 rows per leaf group; layer-2 rows per group pair.
  for (int lg = 0; lg < leaf_grp_count; ++lg) chain_ring(cs_layer1(lg, 0), H);
  for (int lg = 0; lg < leaf_grp_count; ++lg) {
    for (int sg = 0; sg < spine_grp_count; ++sg) {
      chain_ring(cs_layer2(lg, sg, 0), G);
    }
  }

  // --- default matchings ------------------------------------------------------
  for (int lg = 0; lg < leaf_grp_count; ++lg) {
    for (int m = 0; m < H; ++m) wire_rotation(cs_layer1(lg, m), 0);
    for (int sg = 0; sg < spine_grp_count; ++sg) {
      for (int m = 0; m < G; ++m) wire_rotation(cs_layer2(lg, sg, m), m);
    }
  }
  check_invariants();
}

std::size_t LeafSpineFabric::cs_layer1(int leaf_group, int m) const {
  SBK_EXPECTS(leaf_group >= 0 &&
              leaf_group < params_.leaves / params_.group_size);
  SBK_EXPECTS(m >= 0 && m < params_.hosts_per_leaf);
  return static_cast<std::size_t>(leaf_group) * params_.hosts_per_leaf + m;
}

std::size_t LeafSpineFabric::cs_layer2(int leaf_group, int spine_group,
                                       int m) const {
  const int leaf_grp_count = params_.leaves / params_.group_size;
  const int spine_grp_count = params_.spines / params_.group_size;
  SBK_EXPECTS(leaf_group >= 0 && leaf_group < leaf_grp_count);
  SBK_EXPECTS(spine_group >= 0 && spine_group < spine_grp_count);
  SBK_EXPECTS(m >= 0 && m < params_.group_size);
  std::size_t layer1 = static_cast<std::size_t>(leaf_grp_count) *
                       params_.hosts_per_leaf;
  return layer1 +
         (static_cast<std::size_t>(leaf_group) * spine_grp_count +
          spine_group) *
             params_.group_size +
         m;
}

net::NodeId LeafSpineFabric::host(int i) const {
  SBK_EXPECTS(i >= 0 && i < host_count());
  return hosts_[static_cast<std::size_t>(i)];
}

net::NodeId LeafSpineFabric::leaf(int i) const {
  SBK_EXPECTS(i >= 0 && i < params_.leaves);
  return leaves_[static_cast<std::size_t>(i)];
}

net::NodeId LeafSpineFabric::spine(int i) const {
  SBK_EXPECTS(i >= 0 && i < params_.spines);
  return spines_[static_cast<std::size_t>(i)];
}

net::NodeId LeafSpineFabric::node_at(LsPosition pos) const {
  return pos.tier == LsTier::kLeaf ? leaf(pos.index) : spine(pos.index);
}

int LeafSpineFabric::group_of(LsPosition pos) const {
  return pos.index / params_.group_size;
}

DeviceUid LeafSpineFabric::device_at(LsPosition pos) const {
  return pool_.device_at(pool_group(pos.tier, group_of(pos)),
                         pos.index % params_.group_size);
}

std::vector<DeviceUid> LeafSpineFabric::spares(LsTier tier, int grp) const {
  return pool_.spares(pool_group(tier, grp));
}

std::optional<LeafSpineFabric::FailoverReport> LeafSpineFabric::fail_over(
    LsPosition pos) {
  std::optional<Swap> swap = swap_in_spare(pool_group(pos.tier, group_of(pos)),
                                           pos.index % params_.group_size);
  if (!swap.has_value()) return std::nullopt;
  net_.restore_node(node_at(pos));
  return FailoverReport{pos, swap->failed, swap->replacement,
                        swap->circuit_switches_touched,
                        reconfiguration_latency(technology())};
}

std::vector<std::pair<net::NodeId, net::NodeId>>
LeafSpineFabric::realized_adjacency() const {
  return adjacency_of_circuits([this](DeviceUid uid)
                                   -> std::optional<net::NodeId> {
    if (is_host(uid)) return hosts_[uid - first_host()];
    const int slot = pool_.slot_of(uid);
    if (slot < 0) return std::nullopt;  // spare or out
    const int g = pool_.group_of(uid);
    return g < leaf_group_count()
               ? leaf(g * params_.group_size + slot)
               : spine((g - leaf_group_count()) * params_.group_size + slot);
  });
}

LeafSpineFabric::Census LeafSpineFabric::census() const {
  Census c;
  c.circuit_switches = switches_.size();
  c.failure_groups = static_cast<std::size_t>(pool_.group_count());
  c.backup_switches =
      c.failure_groups * static_cast<std::size_t>(params_.backups_per_group);
  return c;
}

}  // namespace sbk::sharebackup
