// In-memory span log for the traced run. The benchmark records a span
// around each call it makes into a module's public API (name, start, end,
// parent span, request id for served sessions, and a work count), keeps
// them in memory, derives the per-layer metrics from them and writes them
// out when the run ends. A disabled log records nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;  // since the log was created
  std::int64_t end_ns = 0;
  int parent = -1;   // index of the enclosing span, -1 for a root
  int request = -1;  // served session's request index, -1 otherwise
  std::int64_t items = 1;  // work the span covers (pictures, GOPs, calls)
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  /// Opens a span and returns its id (-1 when disabled).
  int begin(const char* name, int parent = -1, int request = -1) {
    if (!enabled_) return -1;
    const std::int64_t t = now_ns();
    const std::scoped_lock lock(mutex_);
    spans_.push_back({name, t, -1, parent, request, 1});
    return static_cast<int>(spans_.size()) - 1;
  }

  void end(int id, std::int64_t items = 1) {
    if (id < 0) return;
    const std::int64_t t = now_ns();
    const std::scoped_lock lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end_ns = t;
    spans_[static_cast<std::size_t>(id)].items = items;
  }

  /// Records an already-timed span (for intervals measured elsewhere).
  void record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
              int parent, int request, std::int64_t items) {
    if (!enabled_) return;
    const std::scoped_lock lock(mutex_);
    spans_.push_back({name, start_ns, end_ns, parent, request, items});
  }

  struct Totals {
    std::int64_t count = 0;
    std::int64_t ns = 0;
    std::int64_t items = 0;
  };
  /// Sums the closed spans called `name`.
  [[nodiscard]] Totals totals(const std::string& name) const {
    Totals t;
    const std::scoped_lock lock(mutex_);
    for (const Span& s : spans_) {
      if (s.end_ns < 0 || name != s.name) continue;
      ++t.count;
      t.ns += s.end_ns - s.start_ns;
      t.items += s.items;
    }
    return t;
  }

  /// Writes every span as one JSON array (Chrome trace "X" events would
  /// lose the parent links, so the format is the span fields themselves).
  bool write_json(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(SpanLog& log, const char* name, int parent = -1, int request = -1)
      : log_(log), id_(log.begin(name, parent, request)) {}
  ~Scope() { log_.end(id_, items_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] int id() const { return id_; }
  void set_items(std::int64_t n) { items_ = n; }

 private:
  SpanLog& log_;
  int id_;
  std::int64_t items_ = 1;
};

}  // namespace perfbench
