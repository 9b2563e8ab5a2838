// In-memory span recorder for the traced replay.
//
// A span is one call into a library layer: a stage name, start and end on
// std::chrono::steady_clock, and the id of the span that was open when it
// began (its parent). The replay is single-threaded, so spans nest
// strictly and a stack of open spans gives the parent. Spans stay in
// memory while the replay runs and are written out once, at the end.
//
// A stage's self time is the sum over its spans of duration minus the
// time covered by their direct children.
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;
  static constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

  struct Span {
    std::uint32_t name = 0;  // index into names()
    std::uint32_t parent = kNoParent;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  struct StageTotals {
    std::size_t calls = 0;
    double self_s = 0.0;
    double total_s = 0.0;  // inclusive of children
  };

  /// Opens a span named `stage`; returns its id for end().
  std::uint32_t begin(std::string_view stage);
  /// Closes span `id`, which must be the innermost open span.
  void end(std::uint32_t id);

  /// Adds `amount` to a named counter (bytes written, cache hits, ...).
  void count(const std::string& counter, std::uint64_t amount) {
    counters_[counter] += amount;
  }
  [[nodiscard]] std::uint64_t counter(const std::string& name) const;

  /// Per-stage calls, self and inclusive time. Requires every span closed.
  [[nodiscard]] std::map<std::string, StageTotals> totals() const;

  /// Writes every span as a Chrome trace-event JSON array (loadable in
  /// chrome://tracing or Perfetto), with each span's id and parent id in
  /// its args. Throws std::runtime_error if `path` cannot be written.
  void write_json(const std::string& path) const;


 private:
  std::uint32_t name_id(std::string_view stage);

  Clock::time_point epoch_ = Clock::now();
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t, std::less<>> name_ids_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
  std::map<std::string, std::uint64_t> counters_;
};

/// RAII span: begins on construction, ends on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string_view stage)
      : tracer_(tracer), id_(tracer.begin(stage)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::uint32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H
