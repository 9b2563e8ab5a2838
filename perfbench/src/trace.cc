#include "trace.h"

#include <fstream>
#include <iomanip>
#include <stdexcept>

namespace perfbench {

std::uint32_t Tracer::name_id(std::string_view stage) {
  const auto it = name_ids_.find(stage);
  if (it != name_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(stage);
  name_ids_.emplace(std::string(stage), id);
  return id;
}

std::uint32_t Tracer::begin(std::string_view stage) {
  Span span;
  span.name = name_id(stage);
  span.parent = open_.empty() ? kNoParent : open_.back();
  const auto id = static_cast<std::uint32_t>(spans_.size());
  spans_.push_back(span);
  open_.push_back(id);
  // Read the clock last, so the bookkeeping above is charged to the parent.
  spans_[id].start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count();
  return id;
}

void Tracer::end(std::uint32_t id) {
  const auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - epoch_)
                       .count();
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("Tracer::end: span is not the innermost open one");
  }
  open_.pop_back();
  spans_[id].end_ns = now;
}

std::uint64_t Tracer::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

std::map<std::string, Tracer::StageTotals> Tracer::totals() const {
  if (!open_.empty()) {
    throw std::logic_error("Tracer::totals: spans still open");
  }
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, StageTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    StageTotals& t = out[names_[s.name]];
    ++t.calls;
    t.total_s += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    t.self_s +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
  }
  return out;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << std::fixed << std::setprecision(3) << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << names_[s.name]
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << static_cast<double>(s.start_ns) * 1e-3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
        << ",\"args\":{\"id\":" << i << ",\"parent\":"
        << (s.parent == kNoParent ? std::int64_t{-1}
                                  : static_cast<std::int64_t>(s.parent))
        << "}}";
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("failed writing trace file " + path);
}

}  // namespace perfbench
