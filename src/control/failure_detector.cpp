#include "control/failure_detector.hpp"

#include "util/assert.hpp"

namespace sbk::control {

FailureDetector::FailureDetector(sim::EventQueue& queue,
                                 const net::Network& net,
                                 LatencyModelParams timing,
                                 DetectorConfig config)
    : queue_(&queue), net_(&net), timing_(timing), config_(config) {
  SBK_EXPECTS(timing_.probe_interval > 0.0);
  SBK_EXPECTS(timing_.miss_threshold >= 1);
  SBK_EXPECTS(config_.phase >= 0.0);
  SBK_EXPECTS(config_.report_retry_interval >= 0.0);
}

bool FailureDetector::report_due(const WatchState& w) const {
  if (w.misses < timing_.miss_threshold) return false;
  if (!w.reported) return true;
  // Already reported: re-report a still-failed element periodically so a
  // lost report does not strand the failure forever.
  return config_.report_retry_interval > 0.0 &&
         queue_->now() - w.last_report >=
             config_.report_retry_interval - 1e-12;
}

void FailureDetector::attach_metrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    m_node_probes_ = m_link_probes_ = m_misses_ = nullptr;
    m_node_reports_ = m_link_reports_ = nullptr;
    return;
  }
  m_node_probes_ = &metrics->counter("detector.node_probes");
  m_link_probes_ = &metrics->counter("detector.link_probes");
  m_misses_ = &metrics->counter("detector.misses");
  m_node_reports_ = &metrics->counter("detector.node_failures_reported");
  m_link_reports_ = &metrics->counter("detector.link_failures_reported");
}

void FailureDetector::trace_detection(const std::string& element,
                                      Seconds first_miss,
                                      Seconds detected_at) {
  if (tracer_ == nullptr || !tracer_->enabled()) return;
  std::size_t inc = tracer_->ensure_incident(element, first_miss);
  // Anchor at the injection time when the injector announced itself (it
  // precedes the first miss); otherwise the miss streak is the best
  // observable start of the detection window.
  Seconds start = std::min(tracer_->injected_at(inc), first_miss);
  tracer_->add_span(inc, "detection", start, detected_at);
}

void FailureDetector::watch_node(net::NodeId node, Seconds horizon) {
  WatchState& w = node_watch_[node];
  w.misses = 0;
  w.reported = false;
  w.horizon = horizon;
  if (w.chain_scheduled) return;  // reuse the existing probe chain
  Seconds first = queue_->now() + config_.phase + timing_.probe_interval;
  if (first <= horizon) {
    w.chain_scheduled = true;
    queue_->schedule_at(first, [this, node] { probe_node(node); });
  }
}

void FailureDetector::watch_link(net::LinkId link, Seconds horizon) {
  WatchState& w = link_watch_[link];
  w.misses = 0;
  w.reported = false;
  w.horizon = horizon;
  if (w.chain_scheduled) return;  // reuse the existing probe chain
  Seconds first = queue_->now() + config_.phase + timing_.probe_interval;
  if (first <= horizon) {
    w.chain_scheduled = true;
    queue_->schedule_at(first, [this, link] { probe_link(link); });
  }
}

void FailureDetector::probe_node(net::NodeId node) {
  WatchState& w = node_watch_[node];
  if (m_node_probes_) m_node_probes_->add();
  // The keep-alive arrives iff the node is up.
  if (net_->node_failed(node)) {
    if (w.misses == 0) w.first_miss = queue_->now();
    ++w.misses;
    if (m_misses_) m_misses_->add();
    if (report_due(w)) {
      bool first_report = !w.reported;
      w.reported = true;
      w.last_report = queue_->now();
      if (m_node_reports_) m_node_reports_->add();
      if (first_report) {
        trace_detection(obs::element_for_node(net_->node(node).name),
                        w.first_miss, queue_->now());
      }
      if (node_cb_) node_cb_(node, queue_->now());
    }
  } else {
    w.misses = 0;
  }
  // Re-read the state: the callback may have re-watched or re-armed.
  WatchState& w2 = node_watch_[node];
  Seconds next = queue_->now() + timing_.probe_interval;
  if (next <= w2.horizon) {
    queue_->schedule_at(next, [this, node] { probe_node(node); });
  } else {
    w2.chain_scheduled = false;
  }
}

void FailureDetector::probe_link(net::LinkId link) {
  WatchState& w = link_watch_[link];
  if (m_link_probes_) m_link_probes_->add();
  // A link probe succeeds iff the link and both endpoints are up. A dead
  // endpoint is detected by the node keep-alives; the link path still
  // fails its probes, but a node-failure report takes precedence at the
  // controller, so we only report when both endpoints are alive.
  const net::Link& l = net_->link(link);
  bool endpoints_up = !net_->node_failed(l.a) && !net_->node_failed(l.b);
  if (net_->link_failed(link) && endpoints_up) {
    if (w.misses == 0) w.first_miss = queue_->now();
    ++w.misses;
    if (m_misses_) m_misses_->add();
    if (report_due(w)) {
      bool first_report = !w.reported;
      w.reported = true;
      w.last_report = queue_->now();
      if (m_link_reports_) m_link_reports_->add();
      if (first_report) {
        trace_detection(obs::element_for_link(net_->node(l.a).name,
                                              net_->node(l.b).name),
                        w.first_miss, queue_->now());
      }
      if (link_cb_) link_cb_(link, queue_->now());
    }
  } else if (!net_->link_failed(link)) {
    w.misses = 0;
  }
  WatchState& w2 = link_watch_[link];
  Seconds next = queue_->now() + timing_.probe_interval;
  if (next <= w2.horizon) {
    queue_->schedule_at(next, [this, link] { probe_link(link); });
  } else {
    w2.chain_scheduled = false;
  }
}

void FailureDetector::rearm_node(net::NodeId node) {
  auto it = node_watch_.find(node);
  if (it == node_watch_.end()) return;  // never watched: nothing to re-arm
  WatchState& w = it->second;
  w.misses = 0;
  w.reported = false;
  if (!w.chain_scheduled) {
    Seconds next = queue_->now() + timing_.probe_interval;
    if (next <= w.horizon) {
      w.chain_scheduled = true;
      queue_->schedule_at(next, [this, node] { probe_node(node); });
    }
  }
}

void FailureDetector::rearm_link(net::LinkId link) {
  auto it = link_watch_.find(link);
  if (it == link_watch_.end()) return;  // never watched: nothing to re-arm
  WatchState& w = it->second;
  w.misses = 0;
  w.reported = false;
  if (!w.chain_scheduled) {
    Seconds next = queue_->now() + timing_.probe_interval;
    if (next <= w.horizon) {
      w.chain_scheduled = true;
      queue_->schedule_at(next, [this, link] { probe_link(link); });
    }
  }
}

}  // namespace sbk::control
