// The paper's fat-tree baseline under failures: "global optimal
// rerouting" (§2.2). Affected flows are re-placed with full knowledge of
// the network: among all live shortest paths, pick the one minimizing the
// maximum flow count on any directed link, breaking ties by total load
// then by hash. This is the strongest realistic rerouting a centralized
// fat-tree control plane can do without splitting flows.
// The optimizer caches its live candidate sets with epoch-based
// invalidation on Network::topology_version() (see
// routing/path_cache.hpp). The ECMP front-end caches nothing: it hashes
// to an index into the structural candidate set and builds only that
// path (structural_path, routing/fat_tree_paths.hpp), which is cheaper
// than enumerating and caching the whole set for the cold host pairs a
// workload mostly visits.
#pragma once

#include "routing/path_cache.hpp"
#include "routing/router.hpp"
#include "topo/fat_tree.hpp"

namespace sbk::routing {

class MinCongestionRouter final : public Router {
 public:
  explicit MinCongestionRouter(const topo::FatTree& ft,
                               std::uint64_t salt = 0)
      : ft_(&ft), salt_(salt), cache_(EpochSource::kTopology) {}

  [[nodiscard]] net::Path route(const net::Network& net, net::NodeId src,
                                net::NodeId dst, std::uint64_t flow_id,
                                const LinkLoads* loads) override;

  [[nodiscard]] const char* name() const noexcept override {
    return "global-optimal";
  }

 private:
  const topo::FatTree* ft_;
  std::uint64_t salt_;
  EpochPathCache cache_;  // live candidates, keyed on topology_version
};

/// The complete fat-tree baseline of §2.2: ECMP in normal operation, with
/// *affected flows only* re-placed by the global optimizer when their
/// ECMP path is dead. Unaffected flows keep exactly the path they would
/// have in the healthy network, so CCT slowdowns isolate the failure's
/// effect (as the paper's "final state after failures" methodology does).
class EcmpWithGlobalRerouteRouter final : public Router {
 public:
  explicit EcmpWithGlobalRerouteRouter(const topo::FatTree& ft,
                                       std::uint64_t salt = 0)
      : ft_(&ft), salt_(salt), optimizer_(ft, salt) {}

  [[nodiscard]] net::Path route(const net::Network& net, net::NodeId src,
                                net::NodeId dst, std::uint64_t flow_id,
                                const LinkLoads* loads) override;

  [[nodiscard]] const char* name() const noexcept override {
    return "ecmp+global-reroute";
  }

 private:
  const topo::FatTree* ft_;
  std::uint64_t salt_;
  MinCongestionRouter optimizer_;
};

}  // namespace sbk::routing
