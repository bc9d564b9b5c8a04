#include "sim/max_min.hpp"

#include <algorithm>
#include <limits>

#include "util/assert.hpp"

namespace sbk::sim {

// ---------------------------------------------------------------------------
// MaxMinSolver
//
// Bit-compatibility contract: ProgressiveFill's expressions mirror
// max_min_rates_reference exactly, so the two produce identical doubles.
// Experiment outputs are pinned to this; change both or neither.
// ---------------------------------------------------------------------------

void MaxMinSolver::begin(const net::Network& net,
                         std::size_t expected_demands) {
  net_ = &net;
  demands_.clear();
  if (expected_demands > 0) demands_.reserve(expected_demands);

  const std::size_t slots = net.link_count() * 2;
  if (slot_index_.size() < slots) {
    slot_index_.resize(slots, 0);
    slot_stamp_.resize(slots, 0);
  }
  ++stamp_;

  fill_.residual.clear();
  fill_.unfrozen.clear();
  fill_.active.clear();
}

void MaxMinSolver::add_demand(std::span<const net::DirectedLink> links) {
  SBK_EXPECTS_MSG(net_ != nullptr, "begin() must precede add_demand()");
  demands_.push_back(links);
}

void MaxMinSolver::solve_into(std::vector<double>& rate) {
  SBK_EXPECTS_MSG(net_ != nullptr, "begin() must precede solve_into()");
  const net::Network& net = *net_;
  const std::size_t n = demands_.size();
  rate.assign(n, std::numeric_limits<double>::infinity());
  if (n == 0) return;

  // Pass 1: discover touched directed links, count crossings per link,
  // and count demands that participate in filling at all.
  std::vector<double>& residual = fill_.residual;
  std::vector<std::uint32_t>& unfrozen = fill_.unfrozen;
  std::size_t total_entries = 0;
  std::size_t remaining = 0;
  for (std::size_t f = 0; f < n; ++f) {
    if (!demands_[f].empty()) ++remaining;
    for (net::DirectedLink dl : demands_[f]) {
      const std::size_t s = slot(dl);
      if (slot_stamp_[s] != stamp_) {
        slot_stamp_[s] = stamp_;
        slot_index_[s] = static_cast<std::uint32_t>(residual.size());
        // A failed/drained link carries capacity 0 (or, defensively, a
        // negative value): its demands freeze at rate 0 in the first
        // progressive-filling round. Aborting here would kill a whole
        // failure sweep because one flow crossed a dead link.
        fill_.active.push_back(slot_index_[s]);
        residual.push_back(std::max(net.link(dl.link).capacity, 0.0));
        unfrozen.push_back(0);
      }
      ++unfrozen[slot_index_[s]];
      ++total_entries;
    }
  }
  const std::size_t touched = residual.size();

  // Pass 2: CSR of flows per touched link, filled back to front so each
  // offset ends at its link's first entry (entry order is immaterial).
  flow_offset_.assign(touched + 1, static_cast<std::uint32_t>(total_entries));
  for (std::size_t i = 0, end = 0; i < touched; ++i) {
    end += unfrozen[i];
    flow_offset_[i] = static_cast<std::uint32_t>(end);
  }
  link_flows_.resize(total_entries);
  for (std::size_t f = 0; f < n; ++f) {
    for (net::DirectedLink dl : demands_[f]) {
      const std::uint32_t i = slot_index_[slot(dl)];
      link_flows_[--flow_offset_[i]] = static_cast<std::uint32_t>(f);
    }
  }

  fill_.frozen.assign(n, 0);
  fill_.run(
      remaining,
      [this](std::uint32_t i, auto&& fn) {
        for (std::uint32_t e = flow_offset_[i]; e < flow_offset_[i + 1]; ++e) {
          fn(link_flows_[e]);
        }
      },
      [this](std::uint32_t f, auto&& fn) {
        for (net::DirectedLink dl : demands_[f]) fn(slot_index_[slot(dl)]);
      },
      [&rate](std::uint32_t f, double r) { rate[f] = r; });
}

std::vector<double> MaxMinSolver::solve(const net::Network& net,
                                        const std::vector<Demand>& demands) {
  begin(net, demands.size());
  for (const Demand& d : demands) add_demand(d.links);
  std::vector<double> rates;
  solve_into(rates);
  return rates;
}

std::vector<double> max_min_rates(const net::Network& net,
                                  const std::vector<Demand>& demands) {
  MaxMinSolver solver;
  return solver.solve(net, demands);
}

// ---------------------------------------------------------------------------
// Reference allocator (test-only executable specification; see header).
// ---------------------------------------------------------------------------

namespace {
/// Dense slot for a directed link.
std::size_t ref_slot(net::DirectedLink dl) {
  return dl.link.index() * 2 + (dl.forward ? 0 : 1);
}
}  // namespace

std::vector<double> max_min_rates_reference(
    const net::Network& net, const std::vector<Demand>& demands) {
  const std::size_t n = demands.size();
  std::vector<double> rate(n, std::numeric_limits<double>::infinity());
  if (n == 0) return rate;

  // Build link occupancy only for links actually used: a dense
  // slot -> state index table (directed slots are a flat id space sized
  // by the network) plus a compact vector of touched-link states.
  struct LinkState {
    double residual = 0.0;      // capacity minus frozen flows' rates
    std::size_t unfrozen = 0;   // flows not yet fixed
    std::vector<std::size_t> flows;
  };
  constexpr std::size_t kUntouched = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> slot_to_idx(net.link_count() * 2, kUntouched);
  std::vector<LinkState> links;
  for (std::size_t f = 0; f < n; ++f) {
    for (net::DirectedLink dl : demands[f].links) {
      std::size_t& idx = slot_to_idx[ref_slot(dl)];
      if (idx == kUntouched) {
        idx = links.size();
        links.emplace_back();
        links.back().residual = std::max(net.link(dl.link).capacity, 0.0);
      }
      LinkState& ls = links[idx];
      ls.flows.push_back(f);
      ++ls.unfrozen;
    }
  }

  std::vector<bool> frozen(n, false);
  std::size_t remaining = 0;
  for (std::size_t f = 0; f < n; ++f) {
    if (!demands[f].links.empty()) ++remaining;
    // Pathless demands keep rate = +inf; the fluid simulator treats them
    // as instantaneous.
  }

  while (remaining > 0) {
    double bottleneck_share = std::numeric_limits<double>::infinity();
    for (const LinkState& ls : links) {
      if (ls.unfrozen == 0) continue;
      double share = ls.residual / static_cast<double>(ls.unfrozen);
      bottleneck_share = std::min(bottleneck_share, share);
    }
    SBK_ASSERT_MSG(bottleneck_share < std::numeric_limits<double>::infinity(),
                   "unfrozen flows must sit on at least one link");
    bottleneck_share = std::max(bottleneck_share, 0.0);

    std::vector<std::size_t> to_freeze;
    for (const LinkState& ls : links) {
      if (ls.unfrozen == 0) continue;
      double share = ls.residual / static_cast<double>(ls.unfrozen);
      if (share <= bottleneck_share * (1.0 + 1e-12) + 1e-15) {
        for (std::size_t f : ls.flows) {
          if (!frozen[f]) to_freeze.push_back(f);
        }
      }
    }
    SBK_ASSERT(!to_freeze.empty());
    std::sort(to_freeze.begin(), to_freeze.end());
    to_freeze.erase(std::unique(to_freeze.begin(), to_freeze.end()),
                    to_freeze.end());

    for (std::size_t f : to_freeze) {
      frozen[f] = true;
      rate[f] = bottleneck_share;
      --remaining;
      for (net::DirectedLink dl : demands[f].links) {
        LinkState& ls = links[slot_to_idx[ref_slot(dl)]];
        ls.residual -= bottleneck_share;
        if (ls.residual < 0.0) ls.residual = 0.0;  // absorb fp noise
        --ls.unfrozen;
      }
    }
  }
  return rate;
}

}  // namespace sbk::sim
