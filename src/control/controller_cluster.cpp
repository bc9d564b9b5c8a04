#include "control/controller_cluster.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/log.hpp"

namespace sbk::control {

ControllerCluster::ControllerCluster(sim::EventQueue& queue,
                                     ClusterConfig config)
    : queue_(&queue), config_(config), alive_(config.members, true) {
  SBK_EXPECTS(config_.members >= 1);
  SBK_EXPECTS(config_.heartbeat_interval > 0.0);
  SBK_EXPECTS(config_.miss_threshold >= 1);
  // Highest id wins elections; the initial primary is the highest id.
  primary_ = config_.members - 1;
}

bool ControllerCluster::any_alive() const {
  return std::any_of(alive_.begin(), alive_.end(),
                     [](bool a) { return a; });
}

void ControllerCluster::schedule_tick_if_idle() {
  if (tick_scheduled_) return;
  Seconds next = queue_->now() + config_.heartbeat_interval;
  if (next <= horizon_) {
    tick_scheduled_ = true;
    queue_->schedule_at(next, [this] { heartbeat_tick(); });
  }
}

void ControllerCluster::start(Seconds horizon) {
  horizon_ = horizon;
  schedule_tick_if_idle();
}

void ControllerCluster::track_availability() {
  bool avail = available();
  if (!avail && !unavailable_since_.has_value()) {
    unavailable_since_ = queue_->now();
  } else if (avail && unavailable_since_.has_value()) {
    downtime_ += queue_->now() - *unavailable_since_;
    unavailable_since_.reset();
  }
}

void ControllerCluster::heartbeat_tick() {
  // A fully dead cluster heartbeats nothing and elects nobody; the
  // chain stops and repair_member restarts it.
  if (!any_alive()) {
    tick_scheduled_ = false;
    return;
  }
  if (!election_in_progress_) {
    bool primary_ok =
        primary_.has_value() && alive_[*primary_];
    if (primary_ok) {
      primary_misses_ = 0;
    } else {
      ++primary_misses_;
      if (primary_misses_ >= config_.miss_threshold) start_election();
    }
  }
  Seconds next = queue_->now() + config_.heartbeat_interval;
  if (next <= horizon_) {
    queue_->schedule_at(next, [this] { heartbeat_tick(); });
  } else {
    tick_scheduled_ = false;
  }
}

void ControllerCluster::start_election() {
  if (election_in_progress_) return;
  election_in_progress_ = true;
  primary_.reset();
  track_availability();
  queue_->schedule_in(config_.election_duration,
                      [this] { finish_election(); });
}

void ControllerCluster::finish_election() {
  election_in_progress_ = false;
  primary_misses_ = 0;
  // Highest live id wins. Every member died mid-election: the election
  // aborts without a winner and without consuming a term — terms only
  // advance when some live member can claim one.
  primary_.reset();
  for (std::size_t i = alive_.size(); i-- > 0;) {
    if (alive_[i]) {
      primary_ = i;
      break;
    }
  }
  track_availability();
  if (primary_.has_value()) {
    ++term_;
    SBK_LOG_INFO("cluster", "term " << term_ << ": controller " << *primary_
                                    << " elected primary");
    if (election_cb_) election_cb_(*primary_, term_, queue_->now());
    resume(queue_->now());
  } else {
    SBK_LOG_WARN("cluster",
                 "election aborted: no live controllers (term stays "
                     << term_ << ")");
  }
}

void ControllerCluster::fail_member(std::size_t id) {
  SBK_EXPECTS(id < alive_.size());
  alive_[id] = false;
  // Mid-election deaths need no special casing: finish_election()
  // re-reads alive_ at completion, so a dying candidate — even the
  // would-be winner — is skipped for the highest surviving member, and
  // a death that leaves nobody alive aborts the election without
  // consuming a term. The heartbeat chain keeps ticking while anyone
  // is alive, so a freshly elected primary that dies immediately is
  // re-detected within miss_threshold intervals and the election
  // restarts rather than deadlocking availability (regression tests:
  // Cluster.*MidElection* in control_test.cpp).
  track_availability();
}

void ControllerCluster::repair_member(std::size_t id) {
  SBK_EXPECTS(id < alive_.size());
  const bool was_available = available();
  alive_[id] = true;
  // Reviving the member the (stale) primary_ pointer still names makes
  // the cluster available again without an election — the primary came
  // back before the misses gave up on it. The open unavailability
  // window must close here, or the next transition charges the whole
  // healthy span as downtime.
  track_availability();
  // A repaired member rejoins as a follower and resumes heartbeating.
  // If the chain died with the cluster, restart it; the revived ticks
  // miss the (dead or absent) primary and call an election, which the
  // repaired member can win — total cluster death is survivable.
  schedule_tick_if_idle();
  // No election will fire for a primary that blipped back, so the held
  // work replays here or it would wait for the next outage.
  if (!was_available && available()) resume(queue_->now());
}

void ControllerCluster::defer(Deferred action) {
  SBK_EXPECTS_MSG(!available(), "defer() is for a headless cluster");
  headless_.push_back(std::move(action));
  ++buffered_;
}

void ControllerCluster::resume(Seconds at) {
  if (available_cb_) available_cb_(at);
  // Moved out first, so the loop never iterates a vector that an
  // action could append to.
  std::vector<Deferred> pending = std::move(headless_);
  headless_.clear();
  for (Deferred& action : pending) {
    ++replayed_;
    action(at);
  }
}

std::optional<std::size_t> ControllerCluster::primary() const {
  if (primary_.has_value() && alive_[*primary_]) return primary_;
  return std::nullopt;
}

std::optional<std::size_t> ControllerCluster::acting_member() const {
  if (std::optional<std::size_t> p = primary()) return p;
  for (std::size_t i = alive_.size(); i-- > 0;) {
    if (alive_[i]) return i;
  }
  return std::nullopt;
}

bool ControllerCluster::member_alive(std::size_t id) const {
  SBK_EXPECTS(id < alive_.size());
  return alive_[id];
}

}  // namespace sbk::control
