// service_churn and failover_churn: the controller service fed the
// FaultPlan-derived report torrent service_soak builds, from 40 plans.
//
// One pass = set up (plan, stream, fabric), then one timed service
// lifecycle from the first offer to drain complete. Untraced passes use
// the library's own service classes; traced passes use TracedService,
// which times the protected hooks from outside and calls the parent
// from each.
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "control/controller.hpp"
#include "faultinject/fault_plan.hpp"
#include "faultinject/report_stream.hpp"
#include "service/controller_service.hpp"
#include "service/replicated_service.hpp"
#include "sharebackup/fabric.hpp"
#include "sweep/sweep.hpp"
#include "util/log.hpp"
#include "util/rss.hpp"

namespace perfbench {

namespace {

namespace fi = sbk::faultinject;
namespace svc = sbk::service;
using sbk::Seconds;

struct ServiceShape {
  int k = 8;
  int backups = 2;
  int switch_failures = 60;
  int link_failures = 90;
  int bursts = 4;
  int burst_size = 3;
  /// FaultPlans per stream, each replayed once.
  int plans = 1;
  int resends = 3;
  double time_scale = 0.02;
  /// 0 = single-controller ControllerService.
  int replicas = 0;
  fi::ClusterScenario scenario = fi::ClusterScenario::kNone;
  bool slo = false;
  /// 0 = run_inline on the calling thread.
  int producers = 0;
};

ServiceShape shape_for(const Options& opt) {
  ServiceShape s;
  s.plans = opt.toy ? 3 : 40;
  if (opt.workload == "failover_churn") {
    s.replicas = 3;
    s.scenario = fi::ClusterScenario::kPrimaryCrash;
    s.slo = true;
    s.producers = 2;
  }
  return s;
}

struct Names {
  NameId setup = tracer::name_id("bench.setup");
  NameId fabric = tracer::name_id("sharebackup.build");
  NameId stream = tracer::name_id("faultinject.stream");
  NameId batch_begin = tracer::name_id("service.batch_begin");
  NameId final_sweep = tracer::name_id("control.final_sweep");
  NameId submit = tracer::name_id("service.submit");
  NameId node = tracer::name_id("control.node_report");
  NameId link = tracer::name_id("control.link_report");
  NameId sick = tracer::name_id("control.sick_probe");
  NameId healthy = tracer::name_id("control.healthy_probe");
  NameId op = tracer::name_id("control.operator");
  NameId cluster = tracer::name_id("control.cluster_event");

  [[nodiscard]] NameId of(const svc::ServiceMessage& msg) const {
    switch (msg.kind) {
      case svc::MessageKind::kNodeFailureReport: return node;
      case svc::MessageKind::kLinkFailureReport: return link;
      case svc::MessageKind::kProbeResult: return msg.healthy ? healthy : sick;
      case svc::MessageKind::kOperatorCommand: return op;
      case svc::MessageKind::kControllerCrash:
      case svc::MessageKind::kControllerRepair: return cluster;
    }
    return op;
  }
};

const Names& names() {
  static const Names n;
  return n;
}

/// Times the service's protected hooks from outside: each message's
/// dispatch is a leaf under its kind, the batch hook and the shutdown
/// sweep are spans, and the wall time of each batch (hook entry to its
/// last message's exit) is kept for the batch-latency percentiles.
template <class Base>
class TracedService final : public Base {
 public:
  using Base::Base;

  std::vector<double> batch_us;
  std::int64_t sweep_end_ns = 0;

 protected:
  void on_batch_begin(Seconds start) override {
    const std::int64_t t0 = now_ns();
    close_batch();
    Base::on_batch_begin(start);
    const std::int64_t t1 = now_ns();
    tracer::detail::leaf(names().batch_begin, t0, t1);
    batch_start_ns_ = t0;
    batch_end_ns_ = t1;
  }
  void handle_message(const svc::ServiceMessage& msg, Seconds start) override {
    const std::int64_t t0 = now_ns();
    Base::handle_message(msg, start);
    const std::int64_t t1 = now_ns();
    tracer::detail::leaf(names().of(msg), t0, t1);
    batch_end_ns_ = t1;
  }
  void final_sweep() override {
    close_batch();
    {
      Span span(names().final_sweep);
      Base::final_sweep();
    }
    sweep_end_ns = now_ns();
  }

 private:
  void close_batch() {
    if (batch_start_ns_ < 0) return;
    batch_us.push_back(static_cast<double>(batch_end_ns_ - batch_start_ns_) /
                       1e3);
    batch_start_ns_ = -1;
  }
  std::int64_t batch_start_ns_ = -1;
  std::int64_t batch_end_ns_ = 0;
};

/// What one pass's set-up builds.
struct PassInput {
  std::unique_ptr<sbk::sharebackup::Fabric> fabric;
  std::vector<svc::ServiceMessage> stream;
  fi::ReportStreamBreakdown mix;
};

/// Builds the pass's stream: `plans` FaultPlans drawn from the seed, each
/// replayed once, laid end to end with seq renumbered densely. A plan's
/// mix of switch, link and burst failures sets how much controller work a
/// message costs (one plan per seed swung throughput by a third from
/// seed to seed); many plans per stream average it out. The stream stays
/// small (about 1.4 MB) because a 30 MB one ran twice as noisy under a
/// neighbour's cache load.
PassInput make_input(const ServiceShape& s, std::uint64_t seed) {
  PassInput in;
  {
    Span span(names().fabric);
    in.fabric = std::make_unique<sbk::sharebackup::Fabric>(
        sbk::sharebackup::FabricParams{.fat_tree = {.k = s.k},
                                       .backups_per_group = s.backups});
  }
  Span span(names().stream);
  fi::FaultPlanConfig pcfg;
  pcfg.switch_failures = s.switch_failures;
  pcfg.link_failures = s.link_failures;
  pcfg.bursts = s.bursts;
  pcfg.burst_size = s.burst_size;
  pcfg.cluster_scenario = s.scenario;
  if (s.replicas >= 1) {
    pcfg.cluster_members = static_cast<std::size_t>(s.replicas);
  }
  fi::ReportStreamConfig rcfg;
  rcfg.resends = s.resends;
  rcfg.time_scale = s.time_scale;
  Seconds offset = 0.0;
  for (int j = 0; j < s.plans; ++j) {
    const fi::FaultPlan plan = fi::FaultPlan::generate(
        *in.fabric, pcfg,
        sbk::sweep::derive_seed(seed, static_cast<std::uint64_t>(j)));
    std::vector<svc::ServiceMessage> part = fi::build_report_stream(plan, rcfg);
    for (svc::ServiceMessage& msg : part) {
      msg.at += offset;
      msg.seq = in.stream.size();
      in.stream.push_back(msg);
    }
    // The next plan starts one repeat window after this one's last
    // message.
    offset = in.stream.back().at + plan.config.horizon * s.time_scale;
  }
  in.mix = fi::breakdown(in.stream);
  return in;
}

svc::ServiceConfig service_config(const ServiceShape& s) {
  svc::ServiceConfig cfg;
  // The burst-shaped watermarks service_soak uses: backpressure and probe
  // shedding engage every repeat while failure reports never overflow.
  cfg.ingress.high_water = 160;
  cfg.ingress.low_water = 64;
  cfg.slo.enabled = s.slo;
  return cfg;
}

struct PassResult {
  double wall_s = 0.0;
  /// Service start to the end of the shutdown sweep (traced passes).
  double loop_s = 0.0;
  std::string fingerprint;
  svc::ServiceStats stats;
  svc::IngressStats ingress;
  sbk::control::ControllerStats ctl;  ///< summed over replicas
  std::size_t headless_backlog = 0;
  double election_bound = 0.0;
  std::uint64_t reports_seen = 0;  ///< summed over replicas
  std::size_t health_snapshots = 0;
  std::size_t slo_alerts = 0;
  std::vector<double> batch_us;
};

void add_ctl(sbk::control::ControllerStats& sum,
             const sbk::control::ControllerStats& c) {
  sum.node_failures_handled += c.node_failures_handled;
  sum.link_failures_handled += c.link_failures_handled;
  sum.failovers += c.failovers;
  sum.diagnoses_run += c.diagnoses_run;
  sum.switches_exonerated += c.switches_exonerated;
  sum.switches_confirmed_faulty += c.switches_confirmed_faulty;
  sum.watchdog_trips += c.watchdog_trips;
  sum.retries += c.retries;
  sum.doa_backups += c.doa_backups;
  sum.degraded_reroutes += c.degraded_reroutes;
  sum.requeued += c.requeued;
  sum.recoveries_failed_pool_exhausted += c.recoveries_failed_pool_exhausted;
}

void append_ctl(std::ostringstream& fp, const sbk::control::ControllerStats& c) {
  fp << "failovers=" << c.failovers << ",node=" << c.node_failures_handled
     << ",link=" << c.link_failures_handled << ",diag=" << c.diagnoses_run
     << ",exon=" << c.switches_exonerated
     << ",faulty=" << c.switches_confirmed_faulty
     << ",wd=" << c.watchdog_trips << ",retries=" << c.retries
     << ",doa=" << c.doa_backups << ",degraded=" << c.degraded_reroutes
     << ",requeued=" << c.requeued
     << ",pool_exhausted=" << c.recoveries_failed_pool_exhausted;
}

/// Feeds the stream (inline, or round-robin over `producers` threads
/// through submit()) and returns the wall seconds from the first offer to
/// drain complete; `start_ns` receives the start.
double feed(svc::ControllerService& service,
            const std::vector<svc::ServiceMessage>& stream, int producers,
            std::int64_t& start_ns) {
  if (producers <= 0) {
    start_ns = now_ns();
    service.run_inline(stream);
    return seconds_between(start_ns, now_ns());
  }
  std::vector<int> ids;
  for (int p = 0; p < producers; ++p) ids.push_back(service.add_producer());
  start_ns = now_ns();
  service.start();
  {
    std::vector<std::jthread> threads;
    for (int p = 0; p < producers; ++p) {
      threads.emplace_back([&, p] {
        const int id = ids[static_cast<std::size_t>(p)];
        for (std::size_t i = static_cast<std::size_t>(p); i < stream.size();
             i += static_cast<std::size_t>(producers)) {
          Leaf leaf(names().submit);
          service.submit(id, stream[i]);
        }
        service.finish_producer(id);
      });
    }
  }
  service.drain_and_stop();
  return seconds_between(start_ns, now_ns());
}

template <class Service>
void collect(const Service& service, PassResult& r) {
  r.stats = service.stats();
  r.ingress = service.ingress_stats();
  r.health_snapshots = service.health_log().size();
  r.slo_alerts = service.slo_monitor().alerts().size();
}

/// One timed service lifecycle over a freshly set-up input.
template <template <class> class Wrap>
PassResult run_pass(const ServiceShape& s, PassInput& in, int producers) {
  PassResult r;
  sbk::sharebackup::Fabric& fabric = *in.fabric;
  const svc::ServiceConfig scfg = service_config(s);
  std::int64_t start_ns = 0;
  auto finish = [&](auto& service) {
    if constexpr (requires { service.sweep_end_ns; }) {
      r.loop_s = seconds_between(start_ns, service.sweep_end_ns);
      r.batch_us = std::move(service.batch_us);
    }
  };
  if (s.replicas >= 1) {
    svc::ReplicatedServiceConfig rcfg;
    rcfg.service = scfg;
    rcfg.cluster.members = static_cast<std::size_t>(s.replicas);
    // service_soak's cluster timings: the election bound is 45 ms of
    // plan time, scaled with the stream.
    rcfg.cluster.heartbeat_interval = 0.01 * s.time_scale;
    rcfg.cluster.miss_threshold = 3;
    rcfg.cluster.election_duration = 0.005 * s.time_scale;
    rcfg.audit_limit = 10000;
    Wrap<svc::ReplicatedControllerService> service(fabric, rcfg);
    r.wall_s = feed(service, in.stream, producers, start_ns);
    collect(service, r);
    finish(service);
    r.headless_backlog = service.headless_backlog();
    r.election_bound = service.election_bound();
    std::ostringstream fp;
    fp << service.fingerprint() << ";acting=" << service.acting_member()
       << ";term=" << service.cluster().term();
    for (std::size_t i = 0; i < service.replica_count(); ++i) {
      fp << ";r" << i << ":seen=" << service.reports_seen(i) << ",";
      append_ctl(fp, service.replica(i).stats());
      add_ctl(r.ctl, service.replica(i).stats());
      r.reports_seen += service.reports_seen(i);
    }
    r.fingerprint = fp.str();
    return r;
  }
  sbk::control::Controller controller(fabric, sbk::control::ControllerConfig{});
  controller.set_audit_limit(10000);
  Wrap<svc::ControllerService> service(fabric, controller, scfg);
  r.wall_s = feed(service, in.stream, producers, start_ns);
  collect(service, r);
  finish(service);
  r.ctl = controller.stats();
  std::ostringstream fp;
  fp << service.fingerprint() << ";ctl:";
  append_ctl(fp, r.ctl);
  r.fingerprint = fp.str();
  return r;
}

template <class T>
using Plain = T;

std::string digest_of(const PassResult& r) {
  Digest d;
  d.add(r.fingerprint);
  return d.hex();
}

/// The output checks every pass must meet.
void check_pass(const ServiceShape& s, const PassInput& in,
                const PassResult& r, Outcome& out) {
  out.check(r.ingress.processed == r.ingress.accepted,
            "service: processed != accepted");
  out.check(r.stats.node_reports + r.stats.link_reports ==
                in.mix.failure_reports,
            "service: failure reports lost");
  out.check(r.ingress.dropped_overflow == 0,
            "service: ingress overflow dropped messages");
  if (s.replicas >= 1) {
    out.check(r.headless_backlog == 0, "service: headless backlog left");
    out.check(r.stats.max_headless_window <= r.election_bound + 1e-12,
              "service: headless window exceeds the election bound");
    out.check(r.stats.failovers >= 1, "service: no leader failover ran");
  }
}

struct Phase {
  double processed = 0.0;  ///< messages processed in the timed passes
  sbk::Summary setups;    ///< set-up seconds per pass
  sbk::Summary walls;     ///< timed seconds per pass
  sbk::Summary loops;     ///< traced passes: start to sweep end
  sbk::Summary batch_us;  ///< traced passes: every batch
  std::optional<PassResult> last;  ///< the last pass, for its counters
  std::size_t passes = 0;

  void absorb(Phase&& o) {
    processed += o.processed;
    setups.merge(o.setups);
    walls.merge(o.walls);
    loops.merge(o.loops);
    batch_us.merge(o.batch_us);
    passes += o.passes;
    last = std::move(o.last);
  }
};

/// Runs passes for `seconds` (at least `min_passes`), checking each one
/// and its digest against the first pass of the run.
template <template <class> class Wrap>
Phase run_phase(const ServiceShape& s, const Options& opt, double seconds,
                std::size_t min_passes, Outcome& out, std::string& digest) {
  Phase ph;
  ph.passes = run_for(seconds, min_passes, [&] {
    const std::int64_t t0 = now_ns();
    PassInput in;
    {
      Span span(names().setup);
      in = make_input(s, opt.seed);
    }
    ph.setups.add(seconds_between(t0, now_ns()));
    PassResult r = run_pass<Wrap>(s, in, s.producers);
    check_pass(s, in, r, out);
    const std::string d = digest_of(r);
    if (digest.empty()) digest = d;
    out.check(d == digest, "service: digest differs between passes");
    out.attempted += in.mix.total;
    out.failed += r.ingress.dropped_overflow +
                  (r.ingress.accepted - r.ingress.processed);
    ph.processed += static_cast<double>(r.ingress.processed);
    ph.walls.add(r.wall_s);
    ph.loops.add(r.loop_s);
    ph.batch_us.add_all(r.batch_us);
    r.batch_us.clear();
    ph.last = std::move(r);
  });
  return ph;
}

/// Per-layer metrics and the wall-time table of a traced run. Times are
/// means per traced pass.
void report_traced(const ServiceShape& s, const Phase& plain,
                   const Phase& traced, const Phase* slo_off,
                   std::size_t input_messages, Outcome& out) {
  const auto totals = tracer::totals();
  const double n = static_cast<double>(traced.passes);
  auto total = [&](const std::string& name) {
    auto it = totals.find(name);
    return it == totals.end() ? SpanTotal{} : it->second;
  };
  const PassResult& r = *traced.last;

  double dispatch = 0.0;
  for (const char* kind : {"node_report", "link_report", "sick_probe",
                           "healthy_probe", "operator", "cluster_event"}) {
    const SpanTotal t = total(std::string("control.") + kind);
    dispatch += t.self_s() / n;
    out.set(std::string("control.") + kind + "_s", t.self_s() / n, "s");
    out.set(std::string("control.") + kind + "_n",
            static_cast<double>(t.count) / n, "count");
  }
  const double wall = traced.walls.mean();
  const double loop = traced.loops.mean();
  const double batch_begin = total("service.batch_begin").self_s() / n;
  const double final_sweep = total("control.final_sweep").inclusive_s() / n;
  const double self = loop - dispatch - batch_begin - final_sweep;

  out.set("service.loop_s", loop, "s");
  out.set("service.self_s", self, "s");
  out.set("service.batch_begin_s", batch_begin, "s");
  out.set("service.submit_s", total("service.submit").self_s() / n, "s");
  out.set("service.batches", static_cast<double>(r.ingress.batches), "count");
  out.set("service.batch_us_p50", traced.batch_us.percentile(50.0), "us");
  out.set("service.batch_us_p99", traced.batch_us.percentile(99.0), "us");
  out.set("service.peak_depth", static_cast<double>(r.ingress.peak_depth),
          "count");
  out.set("service.shed_probes", static_cast<double>(r.ingress.shed_probes),
          "count");
  out.set("service.overflow_drops",
          static_cast<double>(r.ingress.dropped_overflow), "count");
  out.set("service.input_mb",
          static_cast<double>(input_messages * sizeof(svc::ServiceMessage)) /
              (1024.0 * 1024.0),
          "MB");

  out.set("control.dispatch_s", dispatch, "s");
  out.set("control.final_sweep_s", final_sweep, "s");
  out.set("control.failovers", static_cast<double>(r.ctl.failovers), "count");
  out.set("control.degraded_reroutes",
          static_cast<double>(r.ctl.degraded_reroutes), "count");
  out.set("control.retries", static_cast<double>(r.ctl.retries), "count");
  out.set("control.requeued", static_cast<double>(r.ctl.requeued), "count");
  out.set("control.diagnoses", static_cast<double>(r.ctl.diagnoses_run),
          "count");
  out.set("control.watchdog_trips", static_cast<double>(r.ctl.watchdog_trips),
          "count");
  const double relevant = static_cast<double>(
      r.stats.node_reports + r.stats.link_reports + r.stats.sick_probes);
  out.set("control.useful_frac",
          relevant > 0.0
              ? static_cast<double>(r.stats.failures_injected) / relevant
              : 0.0,
          "ratio");
  const double fanned = relevant + static_cast<double>(r.stats.operator_commands);
  out.set("control.fanout",
          s.replicas >= 1 && fanned > 0.0
              ? static_cast<double>(r.reports_seen) / fanned
              : 1.0,
          "ratio");

  out.set("service.leader_failovers", static_cast<double>(r.stats.failovers),
          "count");
  out.set("service.replayed_reports",
          static_cast<double>(r.stats.replayed_reports), "count");
  out.set("service.stale_rejections",
          static_cast<double>(r.stats.stale_rejections), "count");
  out.set("service.headless_virtual_s", r.stats.headless_seconds, "virt_s");

  out.set("obs.health_snapshots", static_cast<double>(r.health_snapshots),
          "count");
  out.set("obs.slo_alerts", static_cast<double>(r.slo_alerts), "count");
  out.set("obs.slo_cost_frac",
          slo_off != nullptr
              ? 1.0 - throughput_of(plain.processed, plain.walls) /
                          throughput_of(slo_off->processed, slo_off->walls)
              : 0.0,
          "ratio");

  out.set("sharebackup.build_s", total("sharebackup.build").inclusive_s() / n,
          "s");
  out.set("faultinject.stream_s",
          total("faultinject.stream").inclusive_s() / n, "s");
  out.set("bench.trace_overhead_frac",
          1.0 - throughput_of(traced.processed, traced.walls) /
                    throughput_of(plain.processed, plain.walls),
          "ratio");

  out.table = {{"service (self: ingress, staging, in-loop obs)", self},
               {"service (batch hook: cluster sim, replay)", batch_begin},
               {"control+sharebackup (message dispatch)", dispatch},
               {"control+sharebackup (shutdown sweep)", final_sweep},
               {"unattributed", wall - loop}};
  out.table_wall_s = wall;
  report_table(out);
}

}  // namespace

/// Rounds of untraced and traced passes in a traced run.
constexpr int kRounds = 3;

Outcome run_service_workload(const Options& opt) {
  // The torrent trips the watchdog by design; keep its warnings quiet.
  sbk::Log::set_level(sbk::LogLevel::kError);
  const ServiceShape shape = shape_for(opt);
  Outcome out;
  std::string digest;

  if (!opt.trace) {
    const Phase ph = run_phase<Plain>(shape, opt, opt.seconds, 3, out, digest);
    out.set("items_per_s", throughput_of(ph.processed, ph.walls), "1/s");
    out.set("setup_s", ph.setups.median(), "s");
    out.set("peak_rss_mb", sbk::util::peak_rss_mb(), "MB");
    out.digest = digest;
    return out;
  }

  // Traced run: rounds of untraced passes (on failover_churn also the
  // same passes with the SLO engine off) and traced passes, interleaved so
  // that the host's load drifts over both sides of each comparison; then
  // the determinism cross-check against the other feed.
  const bool pair_slo = shape.slo;
  ServiceShape off = shape;
  off.slo = false;
  std::string off_digest;
  Phase plain, traced;
  std::optional<Phase> slo_off;
  if (pair_slo) slo_off.emplace();
  tracer::reset();
  for (int round = 0; round < kRounds; ++round) {
    plain.absorb(run_phase<Plain>(
        shape, opt, opt.seconds * (pair_slo ? 0.3 : 0.45) / kRounds, 1, out,
        digest));
    if (pair_slo) {
      slo_off->absorb(run_phase<Plain>(off, opt, opt.seconds * 0.25 / kRounds,
                                       1, out, off_digest));
    }
    tracer::set_enabled(true);
    traced.absorb(run_phase<TracedService>(
        shape, opt, opt.seconds * 0.45 / kRounds, 1, out, digest));
    tracer::set_enabled(false);
  }

  PassInput in = make_input(shape, opt.seed);
  const std::size_t input_messages = in.stream.size();
  PassResult alt = run_pass<Plain>(shape, in, shape.producers > 0 ? 0 : 2);
  check_pass(shape, in, alt, out);
  out.check(digest_of(alt) == digest,
            shape.producers > 0
                ? "service: threaded fingerprint != inline fingerprint"
                : "service: 2-producer fingerprint != inline fingerprint");

  report_traced(shape, plain, traced, slo_off ? &*slo_off : nullptr,
                input_messages, out);
  out.digest = digest;
  return out;
}

}  // namespace perfbench
