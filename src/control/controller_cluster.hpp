// Controller replication (§5.1): the logically centralized controller is
// a small cluster; switches report to all members; a primary is elected
// to act on failures, and a replacement is elected when the primary dies.
//
// The election is a term-based bully variant over a heartbeat discrete-
// event simulation: every member heartbeats; when a member misses the
// primary's heartbeats, it starts an election for the next term; the
// highest-id live member wins. This is intentionally simple — the paper
// leaves controller coordination as an open question (§6) — but it
// demonstrates the availability property the architecture assumes:
// failure reactions continue after any minority of controllers die.
//
// Headless buffer: work that needs a usable primary but arrives while
// the cluster has none (a switch re-sends an unacknowledged report to
// the next primary, §5.1) is held here as one deferred action per
// message and replayed in arrival order the moment a primary is usable
// again — after a won election's callback, or when repair_member
// revives the stale primary before any election. Both controller
// drivers (control::ControlPlane and service::ReplicatedControllerService)
// buffer through this one mechanism.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/time.hpp"

namespace sbk::control {

struct ClusterConfig {
  std::size_t members = 3;
  Seconds heartbeat_interval = milliseconds(10);
  int miss_threshold = 3;
  /// Time to complete an election once started.
  Seconds election_duration = milliseconds(5);

  /// Upper bound on one headless window that does not include total
  /// cluster death: worst-case detection (a crash can land just after a
  /// heartbeat, so miss_threshold + 1 intervals pass before the last
  /// miss) plus the election itself. The replicated service asserts its
  /// measured headless windows against this.
  [[nodiscard]] Seconds election_bound() const noexcept {
    return heartbeat_interval * static_cast<double>(miss_threshold + 1) +
           election_duration;
  }
};

class ControllerCluster {
 public:
  ControllerCluster(sim::EventQueue& queue, ClusterConfig config);

  /// Starts heartbeating until `horizon`.
  void start(Seconds horizon);

  /// Crash / repair a member (by id in [0, members)). The heartbeat
  /// chain stops while no member is alive (a dead cluster cannot run
  /// elections); repair_member restarts it, so a repaired member after
  /// total cluster death resumes heartbeating, wins the next election
  /// and available() becomes true again.
  void fail_member(std::size_t id);
  void repair_member(std::size_t id);

  [[nodiscard]] std::optional<std::size_t> primary() const;
  /// The live primary, else the highest live member (the imminent
  /// election winner); nullopt when all are dead. ControlPlane's chaos
  /// injector and the replicated service both aim a "crash whoever
  /// acts" fault at this member.
  [[nodiscard]] std::optional<std::size_t> acting_member() const;
  [[nodiscard]] bool member_alive(std::size_t id) const;
  [[nodiscard]] std::size_t member_count() const noexcept {
    return alive_.size();
  }
  [[nodiscard]] std::size_t term() const noexcept { return term_; }
  /// True while an election is in flight (no primary to act on failures).
  [[nodiscard]] bool election_in_progress() const noexcept {
    return election_in_progress_;
  }
  /// Can the cluster currently react to network failures?
  [[nodiscard]] bool available() const {
    return primary().has_value() && !election_in_progress_;
  }

  using ElectionCallback =
      std::function<void(std::size_t new_primary, std::size_t term,
                         Seconds at)>;
  void on_election(ElectionCallback cb) { election_cb_ = std::move(cb); }

  /// Called at every transition to available() — after the election
  /// callback of a won election, or when repair_member revives the
  /// stale primary — right before the headless buffer replays.
  using AvailableCallback = std::function<void(Seconds at)>;
  void on_available(AvailableCallback cb) { available_cb_ = std::move(cb); }

  /// Holds `action` until a primary is usable, then runs it with the
  /// replay time (see file comment). Requires !available(): a caller
  /// with a usable primary acts directly.
  using Deferred = std::function<void(Seconds at)>;
  void defer(Deferred action);
  /// Deferred actions still waiting (nonzero at the end of a run only
  /// when the whole cluster died and nobody repaired it).
  [[nodiscard]] std::size_t backlog() const noexcept {
    return headless_.size();
  }
  /// Actions ever deferred / replayed.
  [[nodiscard]] std::size_t buffered() const noexcept { return buffered_; }
  [[nodiscard]] std::size_t replayed() const noexcept { return replayed_; }

  /// Total unavailability (no usable primary) accumulated up to now.
  [[nodiscard]] Seconds downtime() const noexcept { return downtime_; }

 private:
  void heartbeat_tick();
  void start_election();
  void finish_election();
  void track_availability();
  /// Runs the available callback, then every deferred action in order.
  void resume(Seconds at);
  [[nodiscard]] bool any_alive() const;
  void schedule_tick_if_idle();

  sim::EventQueue* queue_;
  ClusterConfig config_;
  std::vector<bool> alive_;
  std::optional<std::size_t> primary_;
  std::size_t term_ = 0;
  int primary_misses_ = 0;
  bool election_in_progress_ = false;
  ElectionCallback election_cb_;
  AvailableCallback available_cb_;
  std::vector<Deferred> headless_;
  std::size_t buffered_ = 0;
  std::size_t replayed_ = 0;
  Seconds downtime_ = 0.0;
  std::optional<Seconds> unavailable_since_;
  Seconds horizon_ = 0.0;
  bool tick_scheduled_ = false;
};

}  // namespace sbk::control
