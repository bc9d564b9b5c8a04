// Epoch-validated routing caches. Routers keep candidate-path sets (and
// neighbor-link lookups) keyed by (src, dst) and stamped with the
// Network epoch they were computed under; a cached entry is served only
// while the network still reports that epoch, so cached results are
// bit-identical to a fresh computation by construction.
//
// Which epoch to key on:
//   * net::Network::topology_version() — changes on failures, repairs,
//     capacity edits, and rewiring. Use for live-filtered results
//     (candidate_paths with live_only = true).
//   * net::Network::structure_version() — changes only on rewiring
//     (add_link / retarget_link). Use for structural results, which
//     then survive failure churn untouched. NeighborLinkCache (F10's
//     neighbor-link lookups) is the one such cache in the routers: the
//     structural (live_only = false) primary path is built by index
//     (structural_path in routing/fat_tree_paths.hpp), which is cheaper
//     than caching the whole candidate set per host pair.
//
// Each cache is bound to one EpochSource at construction and reads that
// counter itself on every lookup. The earlier API took a raw epoch value
// from the caller, which let one instance be keyed on topology_version()
// in one call and structure_version() in another; because the counters
// are independent they can momentarily hold equal values, at which point
// the cache would serve a live-filtered set as if it were structural (or
// vice versa). Binding the source at construction makes that mix-up
// unrepresentable.
//
// Caches are per-router-instance and unsynchronized: the sweep engine's
// contract already requires routers to be scenario-private (see
// sweep::SweepRunner), so no locking is needed on the hot path.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/network.hpp"
#include "net/path.hpp"
#include "util/flat_map.hpp"
#include "util/keys.hpp"

namespace sbk::routing {

/// Which Network version counter validates a cache's entries.
enum class EpochSource {
  kTopology,   ///< topology_version(): failures, repairs, capacity, rewiring
  kStructure,  ///< structure_version(): rewiring only
};

/// Reads the counter an EpochSource names.
[[nodiscard]] inline std::uint64_t epoch_of(const net::Network& net,
                                            EpochSource source) noexcept {
  return source == EpochSource::kTopology ? net.topology_version()
                                          : net.structure_version();
}

/// Cache of candidate-path sets per (src, dst) host pair, invalidated as
/// a whole when the bound epoch counter moves. The fill callback runs on
/// miss and its result is stored verbatim — element order included, so
/// hash selection over the cached vector equals hash selection over a
/// fresh enumeration.
///
/// Storage is a util::FlatKeyMap, so the returned entry is valid only
/// until the next lookup() on this cache (table growth relocates
/// values). lookup() returns a checked FlatKeyMap Ref that asserts on
/// dereference after such a relocation, so "consume the candidate set
/// before routing the next flow" is enforced at run time instead of by
/// comment.
class EpochPathCache {
 public:
  using Ref = util::FlatKeyMap<std::vector<net::Path>>::Ref;

  explicit EpochPathCache(EpochSource source) noexcept : source_(source) {}

  template <typename Fill>
  [[nodiscard]] Ref lookup(const net::Network& net, net::NodeId src,
                           net::NodeId dst, Fill&& fill) {
    const std::uint64_t epoch = epoch_of(net, source_);
    if (epoch != epoch_ || !valid_) {
      paths_.clear();
      epoch_ = epoch;
      valid_ = true;
    }
    const std::uint64_t key = util::pack_pair_key(src.value(), dst.value());
    return paths_.find_or_emplace_ref(key, std::forward<Fill>(fill));
  }

  /// Counter this cache validates against (fixed for its lifetime).
  [[nodiscard]] EpochSource source() const noexcept { return source_; }

  /// Entries currently held (exposed for tests pinning invalidation).
  [[nodiscard]] std::size_t size() const noexcept { return paths_.size(); }

 private:
  EpochSource source_;
  std::uint64_t epoch_ = 0;
  bool valid_ = false;  // first lookup always fills
  util::FlatKeyMap<std::vector<net::Path>> paths_;
};

/// Memoized Network::find_link, keyed on structure_version(): the
/// node-pair -> link mapping only changes when wiring changes, never on
/// failure flips, so greedy routers (F10) can resolve neighbor links in
/// O(1) during reroute storms instead of scanning adjacency lists.
/// Liveness (usable()) must still be checked by the caller per call.
class NeighborLinkCache {
 public:
  [[nodiscard]] std::optional<net::LinkId> find(const net::Network& net,
                                                net::NodeId a, net::NodeId b) {
    const std::uint64_t epoch = net.structure_version();
    if (epoch != epoch_ || !valid_) {
      links_.clear();
      epoch_ = epoch;
      valid_ = true;
    }
    const std::uint64_t key = util::pack_pair_key(a.value(), b.value());
    // Audited against FlatKeyMap's reference-validity contract: the
    // entry is copied into the optional return value before this call
    // returns, so no reference outlives a future rehash.
    return links_.find_or_emplace(key,
                                  [&net, a, b] { return net.find_link(a, b); });
  }

 private:
  std::uint64_t epoch_ = 0;
  bool valid_ = false;
  util::FlatKeyMap<std::optional<net::LinkId>> links_;
};

}  // namespace sbk::routing
