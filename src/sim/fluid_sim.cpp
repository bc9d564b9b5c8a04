#include "sim/fluid_sim.hpp"

#include <algorithm>
#include <limits>

#include "net/path.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace sbk::sim {

namespace {
constexpr Seconds kTimeEps = 1e-12;
}

FluidSimulator::FluidSimulator(net::Network& net, routing::Router& router,
                               SimConfig cfg)
    : net_(&net), router_(&router), cfg_(cfg),
      loads_(net.link_count()) {
  SBK_EXPECTS(cfg_.unit_bytes_per_second > 0.0);
  SBK_EXPECTS(cfg_.horizon > 0.0);
}

void FluidSimulator::add_flow(const FlowSpec& flow) {
  SBK_EXPECTS_MSG(!ran_, "simulator instances are single-shot");
  SBK_EXPECTS(flow.bytes >= 0.0);
  SBK_EXPECTS(flow.start >= 0.0);
  FlowState st;
  st.spec = flow;
  st.remaining_bytes = flow.bytes;
  flows_.push_back(std::move(st));
}

void FluidSimulator::add_flows(std::span<const FlowSpec> flows) {
  for (const FlowSpec& f : flows) add_flow(f);
}

void FluidSimulator::at(Seconds when,
                        std::function<void(net::Network&)> action) {
  SBK_EXPECTS_MSG(!ran_, "simulator instances are single-shot");
  SBK_EXPECTS(when >= 0.0);
  SBK_EXPECTS(action != nullptr);
  actions_.push_back(Action{when, std::move(action)});
}

void FluidSimulator::try_route(std::size_t idx, Seconds now,
                               bool is_reroute) {
  FlowState& f = flows_[idx];
  net::Path path;
  {
    obs::ScopedSpan span(recorder_, "fluidsim", "route", now);
    path = router_->route(*net_, f.spec.src, f.spec.dst, f.spec.id, &loads_);
  }
  if (path.empty()) {
    f.stalled = true;
    f.path = {};
    f.dlinks.clear();
    return;
  }
  f.path = std::move(path);
  f.dlinks = f.path.directed_links(*net_);
  for (net::DirectedLink dl : f.dlinks) loads_.add(dl, 1.0);
  f.stalled = false;
  f.active = true;
  rates_dirty_ = true;
  if (use_incremental()) f.alloc_slot = inc_.add_flow(f.dlinks);
  if (is_reroute) {
    ++f.reroutes;
    if (recorder_ != nullptr && recorder_->enabled()) {
      recorder_->instant("fluidsim", "reroute", now,
                         "flow#" + std::to_string(f.spec.id));
    }
  }
}

void FluidSimulator::admit(std::size_t idx, Seconds now) {
  FlowState& f = flows_[idx];
  if (f.spec.src == f.spec.dst ||
      f.remaining_bytes <= cfg_.completion_epsilon_bytes) {
    // Local or empty transfer: completes immediately at fluid granularity.
    f.path = net::Path{{f.spec.src}, {}};
    f.stalled = false;
    finish_flow(idx, now);
    return;
  }
  try_route(idx, now, /*is_reroute=*/false);
  if (f.active) active_.push_back(idx);
}

void FluidSimulator::finish_flow(std::size_t idx, Seconds now) {
  FlowState& f = flows_[idx];
  // Instantly-completing flows (local / zero-byte) never held links or a
  // slot in the active set, so they leave the allocation untouched.
  if (f.active || !f.dlinks.empty()) rates_dirty_ = true;
  f.done = true;
  f.active = false;
  f.stalled = false;
  f.remaining_bytes = 0.0;
  if (f.alloc_slot != IncrementalMaxMin::kNoSlot) {
    inc_.remove_flow(f.alloc_slot);
    f.alloc_slot = IncrementalMaxMin::kNoSlot;
  }
  for (net::DirectedLink dl : f.dlinks) loads_.add(dl, -1.0);
  f.dlinks.clear();
  f.rate = 0.0;
  f.finish = now;
}

void FluidSimulator::recompute_rates(Seconds now) {
  obs::ScopedSpan span(recorder_, "fluidsim", "max_min_solve", now);
  ++allocation_rounds_;
  rates_dirty_ = false;
  if (cfg_.allocation == AllocationModel::kPerLinkEqualShare) {
    // rate = min over the path of capacity / flow-count. The loads_
    // structure already tracks per-directed-link flow counts.
    for (std::size_t idx : active_) {
      FlowState& f = flows_[idx];
      double rate = std::numeric_limits<double>::infinity();
      for (net::DirectedLink dl : f.dlinks) {
        double share = net_->link(dl.link).capacity /
                       std::max(1.0, loads_.get(dl));
        rate = std::min(rate, share);
      }
      f.rate = rate;
    }
    return;
  }
  if (use_incremental()) {
    // Re-solve only the components dirtied since the last event; every
    // other active flow keeps its previous (still-valid) rate.
    inc_.solve();
    for (std::size_t idx : active_) {
      FlowState& f = flows_[idx];
      f.rate = inc_.rate(f.alloc_slot);
    }
    return;
  }
  // Feed the active flows' pinned links straight into the solver as
  // spans — no per-event Demand materialization — and reuse its scratch
  // arrays (and rates_) across events.
  solver_.begin(*net_, active_.size());
  for (std::size_t idx : active_) {
    solver_.add_demand(flows_[idx].dlinks);
  }
  solver_.solve_into(rates_);
  for (std::size_t i = 0; i < active_.size(); ++i) {
    flows_[active_[i]].rate = rates_[i];
  }
}

void FluidSimulator::fill_directed_utilization(std::vector<double>& used) const {
  used.assign(net_->link_count() * 2, 0.0);
  for (std::size_t idx : active_) {
    const FlowState& f = flows_[idx];
    for (net::DirectedLink dl : f.dlinks) {
      used[dl.link.index() * 2 + (dl.forward ? 0 : 1)] += f.rate;
    }
  }
}

double FluidSimulator::mean_active_rate() const {
  if (active_.empty()) return 0.0;
  double sum = 0.0;
  for (std::size_t idx : active_) sum += flows_[idx].rate;
  return sum / static_cast<double>(active_.size());
}

double FluidSimulator::link_utilization_mean() const {
  std::vector<double> used;
  fill_directed_utilization(used);
  double sum = 0.0;
  std::size_t loaded = 0;
  for (std::size_t slot = 0; slot < used.size(); ++slot) {
    if (used[slot] <= 0.0) continue;
    const double cap = net_->link(net::LinkId(static_cast<std::uint32_t>(slot / 2))).capacity;
    if (cap <= 0.0) continue;
    sum += used[slot] / cap;
    ++loaded;
  }
  return loaded == 0 ? 0.0 : sum / static_cast<double>(loaded);
}

double FluidSimulator::link_utilization_max() const {
  std::vector<double> used;
  fill_directed_utilization(used);
  double best = 0.0;
  for (std::size_t slot = 0; slot < used.size(); ++slot) {
    if (used[slot] <= 0.0) continue;
    const double cap = net_->link(net::LinkId(static_cast<std::uint32_t>(slot / 2))).capacity;
    if (cap > 0.0) best = std::max(best, used[slot] / cap);
  }
  return best;
}

void FluidSimulator::handle_topology_change(Seconds now) {
  // Handle active flows whose pinned path died: re-route them (rerouting
  // architectures) or stall them on their pinned path (blackhole model —
  // they resume when the path comes back, e.g. after a ShareBackup
  // repair).
  for (std::size_t idx : active_) {
    FlowState& f = flows_[idx];
    if (net::is_live_path(*net_, f.path)) continue;
    for (net::DirectedLink dl : f.dlinks) loads_.add(dl, -1.0);
    f.dlinks.clear();
    f.active = false;
    rates_dirty_ = true;
    if (f.alloc_slot != IncrementalMaxMin::kNoSlot) {
      inc_.remove_flow(f.alloc_slot);
      f.alloc_slot = IncrementalMaxMin::kNoSlot;
    }
    if (cfg_.reroute_on_path_failure) {
      try_route(idx, now, /*is_reroute=*/true);
    } else {
      f.stalled = true;  // keeps f.path pinned
    }
  }
  // Drop de-activated (now stalled) flows from the active set.
  active_.erase(std::remove_if(active_.begin(), active_.end(),
                               [this](std::size_t idx) {
                                 return !flows_[idx].active;
                               }),
                active_.end());
  // Give stalled flows (including freshly stalled ones) a chance: paths
  // may have come back.
  for (std::size_t idx = 0; idx < flows_.size(); ++idx) {
    FlowState& f = flows_[idx];
    if (!f.stalled || f.done) continue;
    if (f.spec.start > now + kTimeEps) continue;  // not yet arrived
    if (!cfg_.reroute_on_path_failure && !f.path.empty()) {
      // Path-pinned recovery: resume on the original path when live.
      if (net::is_live_path(*net_, f.path)) {
        f.dlinks = f.path.directed_links(*net_);
        for (net::DirectedLink dl : f.dlinks) loads_.add(dl, 1.0);
        f.stalled = false;
        f.active = true;
        rates_dirty_ = true;
        if (use_incremental()) f.alloc_slot = inc_.add_flow(f.dlinks);
        active_.push_back(idx);
      }
      continue;
    }
    try_route(idx, now, /*is_reroute=*/true);
    if (f.active) active_.push_back(idx);
  }
}

std::vector<FlowResult> FluidSimulator::run() {
  SBK_EXPECTS_MSG(!ran_, "simulator instances are single-shot");
  ran_ = true;
  // Bind here, not in the constructor: the capacity snapshot must
  // baseline whatever direct mutations the caller made before run();
  // every later mutation arrives through an action, which re-diffs.
  if (use_incremental()) inc_.bind(*net_);

  // Arrival order by start time (stable on ties by id for determinism).
  std::vector<std::size_t> arrivals(flows_.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) arrivals[i] = i;
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [this](std::size_t a, std::size_t b) {
                     if (flows_[a].spec.start != flows_[b].spec.start)
                       return flows_[a].spec.start < flows_[b].spec.start;
                     return flows_[a].spec.id < flows_[b].spec.id;
                   });
  std::stable_sort(actions_.begin(), actions_.end(),
                   [](const Action& a, const Action& b) {
                     return a.when < b.when;
                   });

  std::size_t next_arrival = 0;
  std::size_t next_action = 0;
  Seconds now = 0.0;
  if (telemetry_ != nullptr) telemetry_->start(0.0);
  const double eps_units =
      cfg_.completion_epsilon_bytes / cfg_.unit_bytes_per_second;

  while (true) {
    bool have_work = !active_.empty() || next_arrival < arrivals.size() ||
                     next_action < actions_.size();
    if (!have_work || now >= cfg_.horizon) break;

    // Next event horizon.
    Seconds t_next = cfg_.horizon;
    if (next_arrival < arrivals.size()) {
      t_next = std::min(t_next, flows_[arrivals[next_arrival]].spec.start);
    }
    if (next_action < actions_.size()) {
      t_next = std::min(t_next, actions_[next_action].when);
    }
    ++events_processed_;
    if (!active_.empty()) {
      if (rates_dirty_) {
        recompute_rates(now);
      } else {
        ++recompute_skips_;
      }
      for (std::size_t idx : active_) {
        const FlowState& f = flows_[idx];
        if (f.rate > 0.0) {
          Seconds t_done =
              now + (f.remaining_bytes / cfg_.unit_bytes_per_second) / f.rate;
          t_next = std::min(t_next, t_done);
        }
      }
    }
    SBK_ASSERT_MSG(t_next >= now - kTimeEps, "time must move forward");
    t_next = std::max(t_next, now);

    // Sample cadence boundaries falling inside (now, t_next] while the
    // rates that governed that interval are still in place.
    if (telemetry_ != nullptr) telemetry_->advance_to(t_next);

    // Advance fluid state.
    Seconds dt = t_next - now;
    if (dt > 0.0 && !active_.empty()) {
      for (std::size_t idx : active_) {
        FlowState& f = flows_[idx];
        f.remaining_bytes -= f.rate * cfg_.unit_bytes_per_second * dt;
      }
    }
    now = t_next;

    // 1) completions due at t_next. This runs before the horizon check:
    // a flow whose remaining volume drains exactly at the horizon has
    // completed at that instant and must not be reported unfinished.
    std::size_t kept = 0;
    for (std::size_t idx : active_) {
      FlowState& f = flows_[idx];
      if (f.remaining_bytes <= cfg_.completion_epsilon_bytes ||
          (f.rate > 0.0 &&
           f.remaining_bytes / cfg_.unit_bytes_per_second <=
               eps_units + f.rate * kTimeEps)) {
        finish_flow(idx, now);
      } else {
        active_[kept++] = idx;
      }
    }
    active_.resize(kept);
    if (now >= cfg_.horizon) break;

    // 2) arrivals due now
    while (next_arrival < arrivals.size() &&
           flows_[arrivals[next_arrival]].spec.start <= now + kTimeEps) {
      admit(arrivals[next_arrival], now);
      ++next_arrival;
    }

    // 3) topology actions due now
    bool topo_changed = false;
    const std::uint64_t topo_before = net_->topology_version();
    while (next_action < actions_.size() &&
           actions_[next_action].when <= now + kTimeEps) {
      actions_[next_action].fn(*net_);
      ++next_action;
      topo_changed = true;
      if (recorder_ != nullptr) {
        recorder_->instant("fluidsim", "topology_action", now);
      }
    }
    if (topo_changed) {
      // Capacity edits and failure flips change allocations even when no
      // flow's path membership moves; the epoch counter catches exactly
      // the actions that mutated something (no-op actions stay clean).
      if (net_->topology_version() != topo_before) {
        rates_dirty_ = true;
        if (use_incremental()) inc_.note_topology_change();
      }
      handle_topology_change(now);
    }
  }

  // Collect results.
  std::vector<FlowResult> results;
  results.reserve(flows_.size());
  for (FlowState& f : flows_) {
    FlowResult r;
    r.spec = f.spec;
    r.path_hops = f.path.hops();
    r.reroutes = f.reroutes;
    if (f.done) {
      r.outcome = FlowOutcome::kCompleted;
      r.finish = f.finish;
      r.bytes_remaining = 0.0;
    } else if (f.stalled) {
      r.outcome = FlowOutcome::kStalledForever;
      r.bytes_remaining = f.remaining_bytes;
    } else {
      r.outcome = FlowOutcome::kUnfinished;
      r.bytes_remaining = f.remaining_bytes;
    }
    results.push_back(std::move(r));
  }
  std::sort(results.begin(), results.end(),
            [](const FlowResult& a, const FlowResult& b) {
              return a.spec.id < b.spec.id;
            });

  if (metrics_ != nullptr) {
    // One flush per run keeps the event loop identical whether or not a
    // registry is attached (the perf-regression gate on the coflow
    // benchmark depends on this).
    std::size_t reroutes = 0, completed = 0, stalled = 0;
    for (const FlowResult& r : results) {
      reroutes += r.reroutes;
      if (r.outcome == FlowOutcome::kCompleted) ++completed;
      if (r.outcome == FlowOutcome::kStalledForever) ++stalled;
    }
    metrics_->counter("fluidsim.events").add(events_processed_);
    metrics_->counter("fluidsim.allocation_rounds").add(allocation_rounds_);
    metrics_->counter("fluidsim.recompute_skips").add(recompute_skips_);
    metrics_->counter("fluidsim.reroutes").add(reroutes);
    metrics_->counter("fluidsim.flows_completed").add(completed);
    metrics_->counter("fluidsim.flows_stalled").add(stalled);
  }
  return results;
}

}  // namespace sbk::sim
