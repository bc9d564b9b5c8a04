#include "sim/incremental_max_min.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace sbk::sim {

void IncrementalMaxMin::bind(const net::Network& net) {
  net_ = &net;
  flows_.clear();
  free_flows_.clear();
  alive_ = 0;
  members_.clear();
  free_members_.clear();
  link_head_.assign(net.link_count() * 2, kNoMember);
  cap_snapshot_.resize(net.link_count());
  for (std::size_t i = 0; i < net.link_count(); ++i) {
    cap_snapshot_[i] =
        net.link(net::LinkId(static_cast<std::uint32_t>(i))).capacity;
  }
  dirty_slots_.clear();
  dirty_flows_.clear();
  slot_seen_.assign(link_head_.size(), 0);
  fill_.residual.assign(link_head_.size(), 0.0);
  fill_.unfrozen.assign(link_head_.size(), 0);
  flow_seen_.clear();
  fill_.frozen.clear();
  seen_stamp_ = 0;
  solves_ = 0;
  last_dirty_flows_ = 0;
  total_resolved_flows_ = 0;
}

void IncrementalMaxMin::ensure_link_arrays() {
  // Structural surgery (add_link) mid-run grows the slot universe; the
  // new links' flows arrive through add_flow, so growing lazily here is
  // enough.
  const std::size_t slots = net_->link_count() * 2;
  if (link_head_.size() >= slots) return;
  link_head_.resize(slots, kNoMember);
  slot_seen_.resize(slots, 0);
  fill_.residual.resize(slots, 0.0);
  fill_.unfrozen.resize(slots, 0);
  const std::size_t old_links = cap_snapshot_.size();
  cap_snapshot_.resize(net_->link_count());
  for (std::size_t i = old_links; i < cap_snapshot_.size(); ++i) {
    cap_snapshot_[i] =
        net_->link(net::LinkId(static_cast<std::uint32_t>(i))).capacity;
  }
}

IncrementalMaxMin::FlowSlot IncrementalMaxMin::add_flow(
    std::span<const net::DirectedLink> links) {
  SBK_EXPECTS_MSG(net_ != nullptr, "bind() must precede add_flow()");
  ensure_link_arrays();

  FlowSlot f;
  if (!free_flows_.empty()) {
    f = free_flows_.back();
    free_flows_.pop_back();
  } else {
    f = static_cast<FlowSlot>(flows_.size());
    flows_.emplace_back();
    flow_seen_.push_back(0);
    fill_.frozen.push_back(0);
  }
  FlowRec& rec = flows_[f];
  rec.links.assign(links.begin(), links.end());
  rec.members.clear();
  rec.rate = std::numeric_limits<double>::infinity();
  rec.alive = true;
  ++alive_;

  for (net::DirectedLink dl : rec.links) {
    const std::size_t s = link_slot(dl);
    std::uint32_t m;
    if (!free_members_.empty()) {
      m = free_members_.back();
      free_members_.pop_back();
    } else {
      m = static_cast<std::uint32_t>(members_.size());
      members_.emplace_back();
    }
    Member& mem = members_[m];
    mem.flow = f;
    mem.slot = static_cast<std::uint32_t>(s);
    mem.prev = kNoMember;
    mem.next = link_head_[s];
    if (mem.next != kNoMember) members_[mem.next].prev = m;
    link_head_[s] = m;
    rec.members.push_back(m);
  }

  if (rec.links.empty()) return f;  // +inf already; touches no component
  dirty_flows_.push_back(f);
  return f;
}

void IncrementalMaxMin::remove_flow(FlowSlot slot) {
  SBK_EXPECTS(slot < flows_.size());
  FlowRec& rec = flows_[slot];
  SBK_EXPECTS_MSG(rec.alive, "double remove of a flow slot");

  for (std::uint32_t m : rec.members) {
    Member& mem = members_[m];
    // The survivors on this link gain the departed flow's share: their
    // component must re-solve.
    dirty_slots_.push_back(mem.slot);
    if (mem.prev != kNoMember) {
      members_[mem.prev].next = mem.next;
    } else {
      link_head_[mem.slot] = mem.next;
    }
    if (mem.next != kNoMember) members_[mem.next].prev = mem.prev;
    free_members_.push_back(m);
  }
  rec.members.clear();
  rec.links.clear();
  rec.alive = false;
  // A queued dirty mark on this flow is skipped at solve() via `alive`.
  --alive_;
  free_flows_.push_back(slot);
}

void IncrementalMaxMin::note_topology_change() {
  SBK_EXPECTS_MSG(net_ != nullptr, "bind() must precede note_topology_change");
  ensure_link_arrays();
  for (std::size_t i = 0; i < cap_snapshot_.size(); ++i) {
    const double cap =
        net_->link(net::LinkId(static_cast<std::uint32_t>(i))).capacity;
    if (cap != cap_snapshot_[i]) {
      cap_snapshot_[i] = cap;
      dirty_slots_.push_back(static_cast<std::uint32_t>(i * 2));
      dirty_slots_.push_back(static_cast<std::uint32_t>(i * 2 + 1));
    }
  }
}

void IncrementalMaxMin::solve() {
  if (dirty_slots_.empty() && dirty_flows_.empty()) return;

  // Close the dirty seeds to full components: alternate expanding flows
  // (over their links) and links (over their membership chains) until
  // the frontier drains. Walking a slot's chain also sets its filling
  // state; a slot that carries no flow stays off the worklist.
  ++seen_stamp_;
  comp_flows_.clear();
  bfs_slots_.clear();

  auto visit_slot = [this](std::size_t s) {
    if (slot_seen_[s] == seen_stamp_) return;
    slot_seen_[s] = seen_stamp_;
    bfs_slots_.push_back(static_cast<std::uint32_t>(s));
  };
  auto visit_flow = [this](FlowSlot f) {
    if (flow_seen_[f] == seen_stamp_) return;
    flow_seen_[f] = seen_stamp_;
    fill_.frozen[f] = 0;
    comp_flows_.push_back(f);
  };

  for (std::uint32_t s : dirty_slots_) visit_slot(s);
  for (FlowSlot f : dirty_flows_) {
    if (flows_[f].alive) visit_flow(f);
  }
  dirty_slots_.clear();
  dirty_flows_.clear();

  fill_.active.clear();
  std::size_t next_flow = 0;
  std::size_t next_slot = 0;
  while (next_flow < comp_flows_.size() || next_slot < bfs_slots_.size()) {
    while (next_flow < comp_flows_.size()) {
      const FlowRec& rec = flows_[comp_flows_[next_flow++]];
      for (net::DirectedLink dl : rec.links) visit_slot(link_slot(dl));
    }
    while (next_slot < bfs_slots_.size()) {
      const std::uint32_t s = bfs_slots_[next_slot++];
      fill_.unfrozen[s] = 0;
      for (std::uint32_t m = link_head_[s]; m != kNoMember;
           m = members_[m].next) {
        visit_flow(members_[m].flow);
        ++fill_.unfrozen[s];
      }
      if (fill_.unfrozen[s] == 0) continue;
      const double capacity = net_->link(net::LinkId(s / 2)).capacity;
      fill_.residual[s] = std::max(capacity, 0.0);
      fill_.active.push_back(s);
    }
  }
  if (comp_flows_.empty()) return;
  fill_.run(
      comp_flows_.size(),
      [this](std::uint32_t s, auto&& fn) {
        for (std::uint32_t m = link_head_[s]; m != kNoMember;
             m = members_[m].next) {
          fn(members_[m].flow);
        }
      },
      [this](FlowSlot f, auto&& fn) {
        for (net::DirectedLink dl : flows_[f].links) fn(link_slot(dl));
      },
      [this](FlowSlot f, double rate) { flows_[f].rate = rate; });

  ++solves_;
  last_dirty_flows_ = comp_flows_.size();
  total_resolved_flows_ += comp_flows_.size();
}

}  // namespace sbk::sim
