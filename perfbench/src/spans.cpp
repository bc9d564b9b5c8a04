#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace perfbench::tracer {

namespace {

struct Record {
  NameId name = 0;
  std::int32_t parent = -1;  ///< index into the same thread's records
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t child_ns = 0;
};

struct ThreadLog {
  std::uint32_t thread = 0;
  std::vector<Record> records;
  std::vector<std::int32_t> stack;
  std::vector<SpanTotal> totals;  ///< indexed by NameId

  SpanTotal& total(NameId id) {
    if (totals.size() <= id) totals.resize(static_cast<std::size_t>(id) + 1);
    return totals[id];
  }
  void add_child(std::int64_t dur) {
    if (!stack.empty()) {
      records[static_cast<std::size_t>(stack.back())].child_ns += dur;
    }
  }
};

std::mutex g_mu;  // guards g_names and g_logs
std::vector<std::string> g_names;
std::vector<std::unique_ptr<ThreadLog>> g_logs;
/// Bumped by reset(); a thread whose cached log predates it registers a
/// fresh one.
std::atomic<std::uint64_t> g_generation{1};

thread_local ThreadLog* t_log = nullptr;
thread_local std::uint64_t t_generation = 0;

ThreadLog& this_thread_log() {
  ThreadLog*& log = t_log;
  std::uint64_t& generation = t_generation;
  const std::uint64_t current = g_generation.load(std::memory_order_acquire);
  if (log == nullptr || generation != current) {
    std::lock_guard<std::mutex> lk(g_mu);
    g_logs.push_back(std::make_unique<ThreadLog>());
    log = g_logs.back().get();
    log->thread = static_cast<std::uint32_t>(g_logs.size() - 1);
    generation = current;
  }
  return *log;
}

}  // namespace

namespace detail {
bool g_enabled = false;
}  // namespace detail

NameId name_id(std::string_view name) {
  std::lock_guard<std::mutex> lk(g_mu);
  for (std::size_t i = 0; i < g_names.size(); ++i) {
    if (g_names[i] == name) return static_cast<NameId>(i);
  }
  if (g_names.size() >= std::numeric_limits<NameId>::max()) {
    throw std::length_error("perfbench: too many span names");
  }
  g_names.emplace_back(name);
  return static_cast<NameId>(g_names.size() - 1);
}

void set_enabled(bool on) noexcept { detail::g_enabled = on; }

void reset() {
  std::lock_guard<std::mutex> lk(g_mu);
  g_logs.clear();
  g_generation.fetch_add(1, std::memory_order_acq_rel);
}

std::map<std::string, SpanTotal> totals(Threads which) {
  std::lock_guard<std::mutex> lk(g_mu);
  const ThreadLog* mine =
      t_generation == g_generation.load(std::memory_order_acquire) ? t_log
                                                                   : nullptr;
  std::map<std::string, SpanTotal> out;
  for (const auto& log : g_logs) {
    const bool is_mine = log.get() == mine;
    if ((which == Threads::kCaller && !is_mine) ||
        (which == Threads::kOthers && is_mine)) {
      continue;
    }
    for (std::size_t id = 0; id < log->totals.size(); ++id) {
      const SpanTotal& t = log->totals[id];
      if (t.count == 0) continue;
      SpanTotal& o = out[g_names[id]];
      o.count += t.count;
      o.inclusive_ns += t.inclusive_ns;
      o.self_ns += t.self_ns;
    }
  }
  return out;
}

void write_json(std::ostream& os) {
  std::lock_guard<std::mutex> lk(g_mu);
  std::int64_t origin = std::numeric_limits<std::int64_t>::max();
  for (const auto& log : g_logs) {
    for (const Record& r : log->records) origin = std::min(origin, r.start_ns);
  }
  os << "[";
  bool first = true;
  std::int64_t base = 0;  // index of this thread's first record in the array
  for (const auto& log : g_logs) {
    for (const Record& r : log->records) {
      os << (first ? "\n" : ",\n") << "{\"name\":\"" << g_names[r.name]
         << "\",\"thread\":" << log->thread
         << ",\"start_us\":" << static_cast<double>(r.start_ns - origin) / 1e3
         << ",\"end_us\":" << static_cast<double>(r.end_ns - origin) / 1e3
         << ",\"self_us\":"
         << static_cast<double>(r.end_ns - r.start_ns - r.child_ns) / 1e3
         << ",\"parent\":" << (r.parent < 0 ? -1 : base + r.parent) << "}";
      first = false;
    }
    base += static_cast<std::int64_t>(log->records.size());
  }
  os << "\n]\n";
}

namespace detail {

void open(NameId id) {
  ThreadLog& log = this_thread_log();
  Record r;
  r.name = id;
  r.parent = log.stack.empty() ? -1 : log.stack.back();
  r.start_ns = now_ns();
  log.records.push_back(r);
  log.stack.push_back(static_cast<std::int32_t>(log.records.size() - 1));
}

void close(NameId id) {
  const std::int64_t end = now_ns();
  ThreadLog& log = this_thread_log();
  if (log.stack.empty()) return;  // opened before a reset()
  Record& r = log.records[static_cast<std::size_t>(log.stack.back())];
  log.stack.pop_back();
  r.end_ns = end;
  const std::int64_t dur = end - r.start_ns;
  SpanTotal& t = log.total(id);
  ++t.count;
  t.inclusive_ns += dur;
  t.self_ns += dur - r.child_ns;
  log.add_child(dur);
}

void leaf(NameId id, std::int64_t start_ns, std::int64_t end_ns) {
  ThreadLog& log = this_thread_log();
  const std::int64_t dur = end_ns - start_ns;
  SpanTotal& t = log.total(id);
  ++t.count;
  t.inclusive_ns += dur;
  t.self_ns += dur;
  log.add_child(dur);
}

}  // namespace detail

}  // namespace perfbench::tracer
