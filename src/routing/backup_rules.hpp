// Precomputed per-destination backup rules (van Adrichem et al., see
// PAPERS.md): every switch holds, next to its primary next-hop for each
// destination, a backup next-hop that is activated locally the moment
// the primary fails — no controller round-trip on the fast path. Only
// when primary AND backup are both dead does the scheme fall back to
// reactive global rerouting (a full controller cycle, modeled by
// MinCongestionRouter and charged global-reroute latency).
//
// Modeled here at path granularity: the primary is the hash-selected
// structural shortest path (identical selection to the ECMP front-end,
// so unaffected flows are bit-identical to the reactive baseline); the
// backup at the detecting switch is the first alternative structural
// candidate that shares the already-traversed prefix and whose suffix
// is alive — exactly what a precomputed per-destination backup next-hop
// reaches. Exhaustion (no prefix-compatible live alternative, e.g. a
// dead host link or a severed downstream edge switch) triggers the
// global fallback; if even that fails, the flow is lost.
//
// Candidates are built by index (structural_path,
// routing/fat_tree_paths.hpp); nothing is cached. The alternates probe
// skips prefix-incompatible candidates by index and builds only the
// ones that share the traversed prefix.
#pragma once

#include <cstdint>

#include "routing/global_reroute.hpp"
#include "routing/router.hpp"
#include "topo/fat_tree.hpp"

namespace sbk::routing {

class BackupRulesRouter final : public Router {
 public:
  explicit BackupRulesRouter(const topo::FatTree& ft, std::uint64_t salt = 0)
      : ft_(&ft), salt_(salt), optimizer_(ft, salt) {}

  [[nodiscard]] net::Path route(const net::Network& net, net::NodeId src,
                                net::NodeId dst, std::uint64_t flow_id,
                                const LinkLoads* loads) override;

  [[nodiscard]] const char* name() const noexcept override {
    return "backup-rules";
  }

  /// Flows rescued by a pre-installed backup next-hop (fast path).
  [[nodiscard]] std::size_t backup_hits() const noexcept {
    return backup_hits_;
  }
  /// Flows whose primary and backup were both dead — sent through the
  /// reactive global-reroute fallback (slow path).
  [[nodiscard]] std::size_t global_fallbacks() const noexcept {
    return global_fallbacks_;
  }

 private:
  const topo::FatTree* ft_;
  std::uint64_t salt_;
  MinCongestionRouter optimizer_;
  std::size_t backup_hits_ = 0;
  std::size_t global_fallbacks_ = 0;
};

}  // namespace sbk::routing
