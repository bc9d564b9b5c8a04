#include "routing/impersonation.hpp"

#include "util/assert.hpp"

namespace sbk::routing {

ImpersonationStore::ImpersonationStore(int k) : k_(k) {
  SBK_EXPECTS_MSG(k >= 4 && k % 2 == 0, "k must be even and >= 4");
  TwoLevelTableBuilder builder(k);
  for (int pod = 0; pod < k; ++pod) {
    tables_.push_back(builder.combined_edge_table(pod));
  }
  for (int pod = 0; pod < k; ++pod) tables_.push_back(builder.agg_table(pod));
  for (int u = 0; u < k / 2; ++u) tables_.push_back(builder.core_table());
}

const TwoLevelTable& ImpersonationStore::group_table(int group_index) const {
  SBK_EXPECTS(group_index >= 0 &&
              static_cast<std::size_t>(group_index) < tables_.size());
  return tables_[static_cast<std::size_t>(group_index)];
}

ForwardingSim::ForwardingSim(const ImpersonationStore& tables,
                             const topo::FailureGroupPool& pool)
    : tables_(&tables), pool_(&pool) {
  const int k = tables.k();
  SBK_EXPECTS_MSG(pool.group_count() == 2 * k + k / 2 &&
                      pool.slot_count(0) == k / 2,
                  "pool must be a fat-tree pool of the store's k");
}

ForwardingTrace ForwardingSim::walk(HostAddr src, HostAddr dst) const {
  const int k = tables_->k();
  const int half = k / 2;
  ForwardingTrace trace;

  SBK_EXPECTS(src.pod >= 0 && src.pod < k && src.edge >= 0 &&
              src.edge < half && src.host >= 0 && src.host < half);
  SBK_EXPECTS(dst.pod >= 0 && dst.pod < k && dst.edge >= 0 &&
              dst.edge < half && dst.host >= 0 && dst.host < half);

  const int vlan = src.edge;  // hosts tag with their edge position's VLAN
  constexpr std::size_t kMaxHops = 16;  // generous loop guard

  SwitchPosition pos{Layer::kEdge, src.pod, src.edge};
  bool from_host_side = true;

  while (trace.positions.size() < kMaxHops) {
    DeviceUid dev = pool_->device_at(topo::failure_group_index(k, pos),
                                     topo::group_slot_of(k, pos));
    trace.positions.push_back(pos);
    trace.devices.push_back(dev);
    const TwoLevelTable& table = tables_->table_of(*pool_, dev);

    std::optional<int> port;
    switch (pos.layer) {
      case Layer::kEdge:
        // Host-facing ingress consults the VLAN-selected out-bound set;
        // fabric-facing ingress consults the shared untagged in-bound set.
        port = from_host_side
                   ? table.lookup(dst, vlan, /*require_tag_match=*/true)
                   : table.lookup(dst, kNoVlan);
        break;
      case Layer::kAgg:
      case Layer::kCore:
        port = table.lookup(dst, vlan);
        break;
    }
    if (!port.has_value()) return trace;  // black hole: not delivered

    switch (pos.layer) {
      case Layer::kEdge: {
        if (*port < half) {
          // Down to a host: delivered iff it is the destination.
          trace.delivered = (pos.pod == dst.pod && pos.index == dst.edge &&
                             *port == dst.host);
          return trace;
        }
        int a = *port - half;
        SBK_ASSERT(a >= 0 && a < half);
        pos = SwitchPosition{Layer::kAgg, pos.pod, a};
        from_host_side = false;
        break;
      }
      case Layer::kAgg: {
        if (*port < half) {
          pos = SwitchPosition{Layer::kEdge, pos.pod, *port};
        } else {
          int i = *port - half;
          SBK_ASSERT(i >= 0 && i < half);
          // Plain wiring: agg a's i-th uplink reaches core a*half + i.
          int c = pos.index * half + i;
          pos = SwitchPosition{Layer::kCore, -1, c};
        }
        break;
      }
      case Layer::kCore: {
        SBK_ASSERT(*port >= 0 && *port < k);
        // Plain wiring: core row r attaches to agg r in every pod.
        int r = pos.index / half;
        pos = SwitchPosition{Layer::kAgg, *port, r};
        break;
      }
    }
  }
  return trace;  // loop guard tripped: not delivered
}

}  // namespace sbk::routing
