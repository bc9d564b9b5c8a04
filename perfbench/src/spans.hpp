// In-memory span tracer for the benchmark's traced runs.
//
// Spans are opened from the benchmark's own code, around calls into the
// repository's layers (service hooks, router calls, simulator runs,
// sweep tasks, set-up phases). Each thread keeps its own span stack, so
// a span's parent is the innermost span open on the same thread. When a
// span closes, its duration is added to its parent's child time; a
// layer's *self* time is its duration minus the time its children
// cover.
//
// Two kinds of span:
//   * Span: a full record (name, thread, start, end, parent) kept in
//     memory and written out by write_json() when the run ends;
//   * Leaf: a per-item span on a hot path (one service message, one
//     route() call). It feeds the per-name totals and its parent's child
//     time but keeps no record of its own — millions of them would not
//     fit in memory. A leaf has no children.
//
// Disabled (the default), opening either kind costs one branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>

namespace perfbench {

using NameId = std::uint16_t;

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double seconds_between(std::int64_t from_ns,
                                            std::int64_t to_ns) noexcept {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

/// Per-name aggregate over every closed span or leaf.
struct SpanTotal {
  std::uint64_t count = 0;
  std::int64_t inclusive_ns = 0;
  std::int64_t self_ns = 0;

  [[nodiscard]] double inclusive_s() const noexcept {
    return static_cast<double>(inclusive_ns) * 1e-9;
  }
  [[nodiscard]] double self_s() const noexcept {
    return static_cast<double>(self_ns) * 1e-9;
  }
};

namespace tracer {

/// Interns a span name (thread-safe; call once per name, e.g. from a
/// function-local static).
[[nodiscard]] NameId name_id(std::string_view name);

void set_enabled(bool on) noexcept;

/// Drops every record and total. Only call while no traced thread runs.
void reset();

/// Which threads' spans totals() merges.
enum class Threads { kAll, kCaller, kOthers };

/// Totals merged across threads, keyed by span name.
[[nodiscard]] std::map<std::string, SpanTotal> totals(
    Threads which = Threads::kAll);

/// Writes every full span record as a JSON array (times in
/// microseconds from the first recorded start; parent is the parent's
/// index in the array, -1 for a root).
void write_json(std::ostream& os);

namespace detail {
extern bool g_enabled;
void open(NameId id);
void close(NameId id);
void leaf(NameId id, std::int64_t start_ns, std::int64_t end_ns);
}  // namespace detail

}  // namespace tracer

/// A recorded span for the scope's lifetime.
class Span {
 public:
  explicit Span(NameId id) : id_(id), on_(tracer::detail::g_enabled) {
    if (on_) tracer::detail::open(id_);
  }
  ~Span() {
    if (on_) tracer::detail::close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  NameId id_;
  bool on_;
};

/// A per-item span folded into totals (see file comment).
class Leaf {
 public:
  explicit Leaf(NameId id)
      : id_(id), start_(tracer::detail::g_enabled ? now_ns() : -1) {}
  ~Leaf() {
    if (start_ >= 0) tracer::detail::leaf(id_, start_, now_ns());
  }
  Leaf(const Leaf&) = delete;
  Leaf& operator=(const Leaf&) = delete;

 private:
  NameId id_;
  std::int64_t start_;
};

}  // namespace perfbench
