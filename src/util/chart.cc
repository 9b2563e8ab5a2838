#include "util/chart.h"

#include <algorithm>
#include <iomanip>
#include <stdexcept>

namespace sbgp::util {

namespace {

std::size_t max_label_width(const std::vector<StackedBar>& bars) {
  std::size_t w = 0;
  for (const auto& b : bars) w = std::max(w, b.label.size());
  return w;
}

}  // namespace

void print_stacked_bars(std::ostream& os, const std::vector<StackedBar>& bars,
                        const std::vector<char>& segment_glyphs, int width) {
  if (width <= 0) throw std::invalid_argument("print_stacked_bars: width <= 0");
  const std::size_t lw = max_label_width(bars);
  for (const auto& bar : bars) {
    if (bar.segments.size() > segment_glyphs.size()) {
      throw std::invalid_argument("print_stacked_bars: not enough glyphs");
    }
    os << std::left << std::setw(static_cast<int>(lw)) << bar.label << " |";
    int used = 0;
    for (std::size_t i = 0; i < bar.segments.size(); ++i) {
      const int cells = static_cast<int>(bar.segments[i] * width + 0.5);
      const int emit = std::min(cells, width - used);
      os << std::string(static_cast<std::size_t>(std::max(emit, 0)),
                        segment_glyphs[i]);
      used += std::max(emit, 0);
    }
    os << std::string(static_cast<std::size_t>(std::max(width - used, 0)), ' ')
       << "|\n";
  }
}

}  // namespace sbgp::util
