// reroute_cct and maxmin_cct: Fig. 1c reduced. One unit = set up (trace,
// healthy topologies and routers, victims), then, timed: the healthy
// fat-tree and F10 simulations, the healthy paths, and 26 failure
// simulations run as SweepRunner tasks — 3 node and 3 link victims under
// each of global reroute, F10, SPIDER and backup rules, plus the two
// ShareBackup failover simulations — each task building its own rig.
//
// Traced units wrap every router in TracedRouter, a decorator that times
// each route() call as a leaf span under the architecture's name, so the
// simulator's own time is sim.run minus the routing inside it.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "bench.hpp"
#include "control/controller.hpp"
#include "obs/metrics.hpp"
#include "routing/backup_rules.hpp"
#include "routing/f10.hpp"
#include "routing/global_reroute.hpp"
#include "routing/spider.hpp"
#include "sharebackup/fabric.hpp"
#include "sim/fluid_sim.hpp"
#include "sweep/sweep.hpp"
#include "topo/fat_tree.hpp"
#include "util/rng.hpp"
#include "util/rss.hpp"
#include "workload/coflow_gen.hpp"

namespace perfbench {

namespace {

namespace net = sbk::net;
namespace routing = sbk::routing;
namespace sim = sbk::sim;
namespace topo = sbk::topo;
using sbk::Seconds;

// 1 capacity unit = 2.5 Gbps, as in fig1c_cct_slowdown.
constexpr double kUnitBps = 3.125e8;
constexpr Seconds kFailureDuration = 300.0;

struct CctShape {
  int k = 16;
  std::size_t coflows = 60;
  bool maxmin = false;
  std::size_t workers = 2;
};

CctShape shape_for(const Options& opt) {
  CctShape s;
  if (opt.workload == "maxmin_cct") {
    s.coflows = 40;
    s.maxmin = true;
    s.workers = 1;
  }
  if (opt.toy) {
    s.k = 8;
    s.coflows = 8;
  }
  return s;
}

/// The k-ary rack-level fat-tree of the Fig. 1 experiments: one rack
/// host per edge switch, 10:1 oversubscribed at the edge.
topo::FatTreeParams paper_fat_tree(int k, topo::Wiring wiring) {
  topo::FatTreeParams p{.k = k, .wiring = wiring};
  p.hosts_per_edge = 1;
  p.host_link_capacity = 10.0 * (k / 2);
  return p;
}

sim::SimConfig sim_config(const CctShape& s) {
  sim::SimConfig cfg;
  cfg.unit_bytes_per_second = kUnitBps;
  cfg.allocation = s.maxmin ? sim::AllocationModel::kMaxMinFair
                            : sim::AllocationModel::kPerLinkEqualShare;
  return cfg;
}

enum class Arch { kGlobalReroute, kF10, kSpider, kBackupRules, kShareBackup };

const char* span_name(Arch a) {
  switch (a) {
    case Arch::kGlobalReroute: return "routing.global_reroute";
    case Arch::kF10: return "routing.f10";
    case Arch::kSpider: return "routing.spider";
    case Arch::kBackupRules: return "routing.backup_rules";
    case Arch::kShareBackup: return "routing.global_reroute";
  }
  return "routing.other";
}

struct Names {
  NameId setup = tracer::name_id("bench.setup");
  NameId generate = tracer::name_id("workload.generate");
  // Rig builds: [0] during set-up, [1] inside a sweep task (timed).
  NameId topo_build[2] = {tracer::name_id("topo.build"),
                          tracer::name_id("topo.task_build")};
  NameId routing_build[2] = {tracer::name_id("routing.build"),
                             tracer::name_id("routing.task_build")};
  NameId sb_build[2] = {tracer::name_id("sharebackup.build"),
                        tracer::name_id("sharebackup.task_build")};
  NameId teardown = tracer::name_id("routing.teardown");
  NameId unit = tracer::name_id("bench.unit");
  NameId healthy = tracer::name_id("bench.healthy");
  NameId paths = tracer::name_id("routing.paths");
  NameId sweep = tracer::name_id("sweep.run");
  NameId task = tracer::name_id("sweep.task");
  NameId sim_setup = tracer::name_id("sim.setup");
  NameId sim_run = tracer::name_id("sim.run");
  NameId check = tracer::name_id("bench.check");
  NameId route[5] = {tracer::name_id(span_name(Arch::kGlobalReroute)),
                     tracer::name_id(span_name(Arch::kF10)),
                     tracer::name_id(span_name(Arch::kSpider)),
                     tracer::name_id(span_name(Arch::kBackupRules)),
                     tracer::name_id(span_name(Arch::kShareBackup))};
};

const Names& names() {
  static const Names n;
  return n;
}

/// Router decorator: one leaf span per route() call.
class TracedRouter final : public routing::Router {
 public:
  TracedRouter(routing::Router& inner, Arch arch)
      : inner_(inner), id_(names().route[static_cast<int>(arch)]) {}

  net::Path route(const net::Network& net, net::NodeId src, net::NodeId dst,
                  std::uint64_t flow_id,
                  const routing::LinkLoads* loads) override {
    Leaf leaf(id_);
    net::Path p = inner_.route(net, src, dst, flow_id, loads);
    if (p.nodes.empty()) ++unreachable;
    return p;
  }
  const char* name() const noexcept override { return inner_.name(); }

  std::uint64_t unreachable = 0;

 private:
  routing::Router& inner_;
  NameId id_;
};

/// A private topology and router for one simulation (the simulator
/// mutates the network it runs on).
struct Rig {
  std::unique_ptr<topo::FatTree> ft;
  std::unique_ptr<sbk::sharebackup::Fabric> fabric;  ///< ShareBackup only
  std::unique_ptr<sbk::control::Controller> ctrl;    ///< ShareBackup only
  std::unique_ptr<routing::Router> router;
  Arch arch = Arch::kGlobalReroute;

  [[nodiscard]] net::Network& network() {
    return fabric ? fabric->network() : ft->network();
  }
};

std::unique_ptr<routing::Router> make_router(Arch arch,
                                             const topo::FatTree& ft,
                                             bool in_task) {
  Span span(names().routing_build[in_task]);
  switch (arch) {
    case Arch::kF10: return std::make_unique<routing::F10Router>(ft, 1);
    case Arch::kSpider:
      return std::make_unique<routing::SpiderProtectRouter>(ft, 1);
    case Arch::kBackupRules:
      return std::make_unique<routing::BackupRulesRouter>(ft, 1);
    case Arch::kGlobalReroute:
    case Arch::kShareBackup:
      return std::make_unique<routing::EcmpWithGlobalRerouteRouter>(ft, 1);
  }
  return nullptr;
}

Rig make_rig(const CctShape& s, Arch arch, bool in_task) {
  Rig rig;
  rig.arch = arch;
  {
    Span span(names().topo_build[in_task]);
    rig.ft = std::make_unique<topo::FatTree>(paper_fat_tree(
        s.k, arch == Arch::kF10 ? topo::Wiring::kAb : topo::Wiring::kPlain));
  }
  rig.router = make_router(arch, *rig.ft, in_task);
  return rig;
}

/// ShareBackup rigs are only built inside sweep tasks.
Rig make_sharebackup_rig(const CctShape& s) {
  Rig rig;
  rig.arch = Arch::kShareBackup;
  {
    Span span(names().sb_build[1]);
    sbk::sharebackup::FabricParams fp;
    fp.fat_tree = paper_fat_tree(s.k, topo::Wiring::kPlain);
    rig.fabric = std::make_unique<sbk::sharebackup::Fabric>(fp);
    rig.ctrl = std::make_unique<sbk::control::Controller>(
        *rig.fabric, sbk::control::ControllerConfig{});
  }
  rig.router = make_router(Arch::kShareBackup, rig.fabric->fat_tree(), true);
  return rig;
}

/// Failure victims drawn from the seed, one per switch layer and link
/// class, as in fig1c_cct_slowdown.
struct Victims {
  int pod = 0, idx = 0, core = 0;            ///< switch victims
  int pod2 = 0, edge2 = 0, agg2 = 0, core2 = 0, host2 = 0;  ///< link victims
};

/// One failure simulation: an architecture and a victim (0-2: edge, agg
/// or core switch; 3-5: host, edge-agg or agg-core link; ShareBackup: 0
/// agg, 1 edge switch).
struct Task {
  Arch arch = Arch::kGlobalReroute;
  int victim = 0;
};

/// A task's private rig and its resolved victim. The task builds it and
/// drops it when done, as fig1c_cct_slowdown's scenarios do: a router's
/// path caches grow to tens of MB, so 26 live rigs would not fit.
struct Failure {
  Rig rig;
  bool node = true;
  net::NodeId node_victim{};
  net::LinkId link_victim{};
  topo::SwitchPosition sb_pos{};
};

Failure make_failure(const CctShape& s, const Victims& v, const Task& t) {
  Failure f;
  if (t.arch == Arch::kShareBackup) {
    f.rig = make_sharebackup_rig(s);
    f.sb_pos = {t.victim == 0 ? topo::Layer::kAgg : topo::Layer::kEdge, v.pod,
                v.idx};
    f.node_victim = f.rig.fabric->node_at(f.sb_pos);
    return f;
  }
  f.rig = make_rig(s, t.arch, true);
  const topo::FatTree& ft = *f.rig.ft;
  f.node = t.victim < 3;
  switch (t.victim) {
    case 0: f.node_victim = ft.edge(v.pod, v.idx); break;
    case 1: f.node_victim = ft.agg(v.pod, v.idx); break;
    case 2: f.node_victim = ft.core(v.core); break;
    case 3: f.link_victim = ft.host_link(ft.host(v.host2)); break;
    case 4:
      f.link_victim =
          *ft.network().find_link(ft.edge(v.pod2, v.edge2), ft.agg(v.pod2, v.agg2));
      break;
    default:
      f.link_victim = *ft.network().find_link(
          ft.core(v.core2), ft.agg_for_core(v.core2, v.pod2));
  }
  return f;
}

/// Everything a unit's set-up builds.
struct UnitInput {
  std::vector<sim::FlowSpec> flows;
  Rig healthy[2];  ///< plain fat-tree (global reroute), AB-wired (F10)
  Victims victims;
  std::vector<Task> tasks;
};

/// The heavy coflow trace of fig1c_cct_slowdown, from its fixed trace
/// seed: as in that experiment, the trace is the paper-calibrated input
/// and the benchmark seed draws the failure victims.
std::vector<sim::FlowSpec> make_trace(const CctShape& s,
                                      const topo::FatTree& ft) {
  Span span(names().generate);
  sbk::workload::CoflowWorkloadParams wp;
  wp.racks = ft.host_count();
  wp.coflows = s.coflows;
  wp.duration = kFailureDuration;
  wp.width_lognorm_mu = 1.2;
  wp.reducer_bytes_xm = 1e9;
  wp.reducer_bytes_cap = 1e11;
  sbk::Rng rng(20170003);
  return sbk::workload::expand_to_flows(
      ft, sbk::workload::generate_coflows(wp, rng));
}

UnitInput make_input(const CctShape& s, std::uint64_t seed) {
  UnitInput in;
  in.healthy[0] = make_rig(s, Arch::kGlobalReroute, false);
  in.healthy[1] = make_rig(s, Arch::kF10, false);
  const topo::FatTree& plain = *in.healthy[0].ft;
  in.flows = make_trace(s, plain);

  sbk::Rng rng(seed * 0xbf58476d1ce4e5b9ULL + 7);
  auto draw = [&rng](int n) {
    return static_cast<int>(rng.uniform_index(static_cast<std::size_t>(n)));
  };
  const int k = s.k;
  Victims& v = in.victims;
  v.pod = draw(k);
  v.idx = draw(k / 2);
  v.core = draw(k * k / 4);
  v.pod2 = draw(k);
  v.edge2 = draw(k / 2);
  v.agg2 = draw(k / 2);
  v.core2 = draw(k * k / 4);
  v.host2 = draw(plain.host_count());

  for (int victim = 0; victim < 6; ++victim) {
    for (Arch arch : {Arch::kGlobalReroute, Arch::kSpider, Arch::kBackupRules,
                      Arch::kF10}) {
      in.tasks.push_back({arch, victim});
    }
  }
  in.tasks.push_back({Arch::kShareBackup, 0});
  in.tasks.push_back({Arch::kShareBackup, 1});
  return in;
}

/// What one simulation produced.
struct SimOutput {
  std::map<sim::CoflowId, double> ccts;
  std::uint64_t digest = 0;  ///< per-flow finish times
  std::size_t flows = 0;
  std::size_t unfinished = 0;
  std::uint64_t rounds = 0, skips = 0, events = 0, reroutes = 0;
  std::uint64_t unreachable = 0;
  net::NodeId node_victim{};
};

SimOutput simulate(const CctShape& s, Rig& rig,
                   const std::vector<sim::FlowSpec>& flows,
                   const Failure* task, bool traced) {
  std::optional<TracedRouter> traced_router;
  routing::Router* router = rig.router.get();
  if (traced) router = &traced_router.emplace(*rig.router, rig.arch);
  sbk::obs::MetricsRegistry metrics(/*enabled=*/traced);

  std::optional<sim::FluidSimulator> simulator;
  {
    Span span(names().sim_setup);
    sim::SimConfig cfg = sim_config(s);
    if (rig.arch == Arch::kShareBackup) {
      cfg.reroute_on_path_failure = false;  // paths pinned; fabric repairs
    }
    simulator.emplace(rig.network(), *router, cfg);
    if (traced) simulator->attach_metrics(&metrics);
    simulator->add_flows(flows);
    if (task != nullptr && rig.arch == Arch::kShareBackup) {
      const net::NodeId victim = task->node_victim;
      const topo::SwitchPosition pos = task->sb_pos;
      sbk::control::Controller* ctrl = rig.ctrl.get();
      const Seconds at = kFailureDuration / 2;
      simulator->at(at, [victim](net::Network& n) { n.fail_node(victim); });
      simulator->at(at + ctrl->end_to_end_recovery_latency(),
                    [ctrl, pos](net::Network&) {
                      (void)ctrl->on_switch_failure(pos);
                    });
    } else if (task != nullptr && task->node) {
      const net::NodeId v = task->node_victim;
      simulator->at(0.0, [v](net::Network& n) { n.fail_node(v); });
      simulator->at(kFailureDuration,
                    [v](net::Network& n) { n.restore_node(v); });
    } else if (task != nullptr) {
      const net::LinkId v = task->link_victim;
      simulator->at(0.0, [v](net::Network& n) { n.fail_link(v); });
      simulator->at(kFailureDuration,
                    [v](net::Network& n) { n.restore_link(v); });
    }
  }
  std::vector<sim::FlowResult> results;
  {
    Span span(names().sim_run);
    results = simulator->run();
  }
  Span span(names().check);
  SimOutput out;
  Digest d;
  for (const sim::FlowResult& r : results) {
    d.add(static_cast<std::uint64_t>(r.spec.id));
    d.add(static_cast<std::uint64_t>(r.outcome));
    d.add(r.finish);
    if (r.outcome != sim::FlowOutcome::kCompleted) ++out.unfinished;
  }
  out.digest = d.value();
  out.flows = results.size();
  if (task != nullptr) out.node_victim = task->node_victim;
  for (const auto& c : sim::aggregate_coflows(results)) {
    if (c.all_completed && c.cct() > 0.0) out.ccts[c.id] = c.cct();
  }
  if (traced) {
    auto counter = [&metrics](const char* name) -> std::uint64_t {
      const auto* c = metrics.find_counter(name);
      return c != nullptr ? c->value() : 0;
    };
    out.rounds = counter("fluidsim.allocation_rounds");
    out.skips = counter("fluidsim.recompute_skips");
    out.events = counter("fluidsim.events");
    out.reroutes = counter("fluidsim.reroutes");
    out.unreachable = traced_router->unreachable;
  }
  return out;
}

/// Healthy-network path of every flow under `router`.
std::vector<net::Path> healthy_paths(Rig& rig,
                                     const std::vector<sim::FlowSpec>& flows) {
  std::vector<net::Path> out;
  out.reserve(flows.size());
  for (const auto& f : flows) {
    out.push_back(f.src == f.dst ? net::Path{{f.src}, {}}
                                 : rig.router->route(rig.network(), f.src,
                                                     f.dst, f.id, nullptr));
  }
  return out;
}

struct UnitResult {
  double wall_s = 0.0;
  double sweep_s = 0.0;  ///< the failure sweep alone
  std::size_t flows = 0;
  std::size_t unfinished = 0;
  std::size_t tasks = 0;
  std::string digest;
  SimOutput counters;  ///< summed counters (traced units)
};

/// The timed part of a unit: healthy runs, healthy paths, the failure
/// sweep on `workers` threads, and the output checks.
UnitResult run_unit(const CctShape& s, UnitInput& in, std::size_t workers,
                    std::uint64_t seed, bool traced, Outcome& out) {
  UnitResult u;
  const std::int64_t t0 = now_ns();
  Span unit_span(names().unit);
  SimOutput healthy[2];
  std::vector<net::Path> paths[2];
  {
    Span span(names().healthy);
    for (int i = 0; i < 2; ++i) {
      healthy[i] = simulate(s, in.healthy[i], in.flows, nullptr, traced);
    }
  }
  {
    Span span(names().paths);
    for (int i = 0; i < 2; ++i) paths[i] = healthy_paths(in.healthy[i], in.flows);
  }

  sbk::sweep::SweepRunner runner({.master_seed = seed, .threads = workers});
  const std::int64_t s0 = now_ns();
  std::vector<SimOutput> outs;
  {
    Span span(names().sweep);
    outs = runner.run(in.tasks.size(), [&](const sbk::sweep::ScenarioSpec& spec) {
      Span task_span(names().task);
      std::optional<Failure> f;
      f.emplace(make_failure(s, in.victims, in.tasks[spec.index]));
      SimOutput o = simulate(s, f->rig, in.flows, &*f, traced);
      Span span(names().teardown);  // frees the router's path caches
      f.reset();
      return o;
    });
  }
  u.sweep_s = seconds_between(s0, now_ns());
  u.tasks = outs.size();

  Span check_span(names().check);
  Digest d;
  auto absorb = [&](const SimOutput& o) {
    d.add(o.digest);
    u.flows += o.flows;
    u.unfinished += o.unfinished;
    u.counters.rounds += o.rounds;
    u.counters.skips += o.skips;
    u.counters.events += o.events;
    u.counters.reroutes += o.reroutes;
    u.counters.unreachable += o.unreachable;
  };
  absorb(healthy[0]);
  absorb(healthy[1]);
  for (std::size_t i = 0; i < outs.size(); ++i) {
    absorb(outs[i]);
    if (in.tasks[i].arch != Arch::kShareBackup) continue;
    // ShareBackup repairs in milliseconds: its affected coflows keep
    // their healthy CCTs, give or take the failover itself. The victim's
    // flows stall for the ~3 ms repair, which can delay a coflow active
    // on it by a few milliseconds (up to 1.6 repair times under max-min
    // across 200 seeds), so the delay is bounded by 1e-4 of the longer of
    // the healthy CCT and the failure duration that rerouting suffers.
    const std::vector<net::Path>& p = paths[0];
    std::set<sim::CoflowId> affected;
    for (std::size_t f = 0; f < in.flows.size(); ++f) {
      if (net::path_uses_node(p[f], outs[i].node_victim)) {
        affected.insert(in.flows[f].coflow);
      }
    }
    for (sim::CoflowId id : affected) {
      auto base = healthy[0].ccts.find(id);
      auto got = outs[i].ccts.find(id);
      const bool ok = base != healthy[0].ccts.end() &&
                      got != outs[i].ccts.end() &&
                      std::abs(got->second - base->second) <=
                          1e-4 * std::max(base->second, kFailureDuration);
      out.check(ok, "fluid: ShareBackup affected coflow slowed down");
    }
  }
  out.check(u.unfinished == 0, "fluid: a flow did not complete");
  u.digest = d.hex();
  u.wall_s = seconds_between(t0, now_ns());
  return u;
}

struct Phase {
  double flows = 0.0;   ///< flows simulated in the timed units
  sbk::Summary setups;  ///< set-up seconds, five per unit
  sbk::Summary walls;   ///< timed seconds per unit
  sbk::Summary sweeps;  ///< the failure sweep's seconds per unit
  std::optional<UnitResult> last;
  std::size_t units = 0;

  void absorb(Phase&& o) {
    flows += o.flows;
    setups.merge(o.setups);
    walls.merge(o.walls);
    sweeps.merge(o.sweeps);
    units += o.units;
    last = std::move(o.last);
  }
};

/// Runs units for `seconds` (at least `min_units`), checking each one and
/// its digest against the first unit of the run.
Phase run_phase(const CctShape& s, const Options& opt, double seconds,
                std::size_t min_units, bool traced, Outcome& out,
                std::string& digest) {
  Phase ph;
  ph.units = run_for(seconds, min_units, [&] {
    // Set-up takes about a millisecond; time it several times per unit
    // so the run's median rests on more than a handful of samples.
    std::optional<UnitInput> in;
    for (int i = 0; i < 5; ++i) {
      in.reset();
      const std::int64_t t0 = now_ns();
      Span span(names().setup);
      in.emplace(make_input(s, opt.seed));
      ph.setups.add(seconds_between(t0, now_ns()));
    }
    UnitResult u = run_unit(s, *in, s.workers, opt.seed, traced, out);
    if (digest.empty()) digest = u.digest;
    out.check(u.digest == digest, "fluid: digest differs between units");
    out.attempted += u.flows;
    out.failed += u.unfinished;
    ph.flows += static_cast<double>(u.flows);
    ph.walls.add(u.wall_s);
    ph.sweeps.add(u.sweep_s);
    ph.last = std::move(u);
  });
  return ph;
}

/// Per-layer metrics and the wall-time table of a traced run, per unit.
/// Layer times are busy thread-seconds. The table converts them to wall
/// seconds: time on a sweep worker counts 1/workers, and the sweep row
/// is the sweep's wall time not covered by its tasks (idle workers,
/// fan-out and merge), so the rows add up to the unit's wall time.
void report_traced(const CctShape& s, const Phase& plain, const Phase& traced,
                   Outcome& out) {
  const double n = static_cast<double>(traced.units);
  const auto all = tracer::totals();
  const auto mine = tracer::totals(tracer::Threads::kCaller);
  const auto others = tracer::totals(tracer::Threads::kOthers);
  auto get = [n](const std::map<std::string, SpanTotal>& m,
                 const std::string& name, bool self) {
    auto it = m.find(name);
    if (it == m.end()) return 0.0;
    return (self ? it->second.self_s() : it->second.inclusive_s()) / n;
  };
  const UnitResult& last = *traced.last;
  const double workers =
      static_cast<double>(std::min(s.workers, last.tasks));

  double route = 0.0, route_n = 0.0;
  for (const char* arch : {"global_reroute", "f10", "spider", "backup_rules"}) {
    const std::string name = std::string("routing.") + arch;
    route += get(all, name, true);
    auto it = all.find(name);
    if (it != all.end()) route_n += static_cast<double>(it->second.count) / n;
    out.set(name + "_s", get(all, name, true), "s");
  }
  const double paths = get(all, "routing.paths", true);
  out.set("routing.route_s", route + paths, "s");
  out.set("routing.route_n", route_n, "count");
  out.set("routing.unreachable_n",
          static_cast<double>(last.counters.unreachable), "count");

  out.set("sim.run_s", get(all, "sim.run", false), "s");
  out.set("sim.self_s", get(all, "sim.run", true), "s");
  out.set("sim.setup_s", get(all, "sim.setup", true), "s");
  const SimOutput& c = last.counters;
  out.set("sim.allocation_rounds", static_cast<double>(c.rounds), "count");
  out.set("sim.recompute_skips", static_cast<double>(c.skips), "count");
  const double decisions = static_cast<double>(c.rounds + c.skips);
  out.set("sim.skip_frac",
          decisions > 0.0 ? static_cast<double>(c.skips) / decisions : 0.0,
          "ratio");
  out.set("sim.events", static_cast<double>(c.events), "count");
  out.set("sim.reroutes", static_cast<double>(c.reroutes), "count");

  const double task_s = get(all, "sweep.task", false);
  out.set("sweep.busy_frac", task_s / (traced.sweeps.mean() * workers),
          "ratio");

  // Set-up phases, per set-up.
  const double per_setup = n / static_cast<double>(traced.setups.count());
  out.set("topo.build_s", get(all, "topo.build", false) * per_setup, "s");
  out.set("routing.build_s", get(all, "routing.build", false) * per_setup,
          "s");
  out.set("workload.generate_s",
          get(all, "workload.generate", false) * per_setup, "s");
  out.set("sharebackup.build_s",
          get(all, "sharebackup.task_build", false), "s");
  out.set("bench.trace_overhead_frac",
          1.0 - throughput_of(traced.flows, traced.walls) /
                    throughput_of(plain.flows, plain.walls),
          "ratio");

  // Wall-equivalent rows: the caller's self time plus workers' / w.
  auto wall_eq = [&](std::initializer_list<const char*> names_) {
    double sum = 0.0;
    for (const char* name : names_) {
      sum += get(mine, name, true) + get(others, name, true) / workers;
    }
    return sum;
  };
  const double sim_row = wall_eq({"sim.setup", "sim.run"});
  const double routing_row =
      wall_eq({"routing.global_reroute", "routing.f10", "routing.spider",
               "routing.backup_rules", "routing.paths", "routing.teardown"});
  const double build_row = wall_eq(
      {"topo.task_build", "routing.task_build", "sharebackup.task_build"});
  const double sweep_row = get(mine, "sweep.run", true) +
                           get(mine, "sweep.task", true) +
                           get(others, "sweep.task", true) / workers -
                           get(others, "sweep.task", false) / workers;
  const double check_row = wall_eq({"bench.check"});
  const double wall = traced.walls.mean();
  out.table = {{"sim (setup + run, minus routing)", sim_row},
               {"routing (route calls, router teardown)", routing_row},
               {"topo+routing+sharebackup (task rig builds)", build_row},
               {"sweep (fan-out, idle workers, merge)", sweep_row},
               {"bench (digests and output checks)", check_row},
               {"unattributed", wall - sim_row - routing_row - build_row -
                                    sweep_row - check_row}};
  out.table_wall_s = wall;
  report_table(out);
}

}  // namespace

Outcome run_cct_workload(const Options& opt) {
  const CctShape shape = shape_for(opt);
  Outcome out;
  std::string digest;
  if (!opt.trace) {
    const Phase ph = run_phase(shape, opt, opt.seconds, 3, false, out, digest);
    out.set("items_per_s", throughput_of(ph.flows, ph.walls), "1/s");
    out.set("setup_s", ph.setups.median(), "s");
    out.set("peak_rss_mb", sbk::util::peak_rss_mb(), "MB");
    out.digest = digest;
    return out;
  }

  // Rounds of untraced and traced units, interleaved so that the host's
  // load drifts over both sides of the tracing-overhead comparison.
  Phase plain, traced;
  tracer::reset();
  for (int round = 0; round < 3; ++round) {
    plain.absorb(run_phase(shape, opt, opt.seconds * 0.4 / 3, 1, false, out,
                           digest));
    tracer::set_enabled(true);
    traced.absorb(run_phase(shape, opt, opt.seconds * 0.4 / 3, 1, true, out,
                            digest));
    tracer::set_enabled(false);
  }

  // Determinism cross-check: the parallel sweep matches one worker.
  if (shape.workers > 1) {
    UnitInput in = make_input(shape, opt.seed);
    const UnitResult serial = run_unit(shape, in, 1, opt.seed, false, out);
    out.check(serial.digest == digest,
              "fluid: parallel sweep digest != 1-worker digest");
  }

  report_traced(shape, plain, traced, out);
  out.digest = digest;
  return out;
}

}  // namespace perfbench
