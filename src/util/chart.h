// ASCII bar charts: the paper's figures are stacked bars and series; bench
// binaries render a coarse textual version so the "shape" of each result is
// visible directly in terminal output.
#ifndef SBGP_UTIL_CHART_H
#define SBGP_UTIL_CHART_H

#include <ostream>
#include <string>
#include <vector>

namespace sbgp::util {

/// One stacked bar: a label plus ordered segments (fractions in [0,1]).
struct StackedBar {
  std::string label;
  std::vector<double> segments;
};

/// Renders horizontal stacked bars. `segment_glyphs` supplies one fill
/// character per segment (e.g. {'#', '+', '.'}); `width` is the number of
/// columns representing 100%.
void print_stacked_bars(std::ostream& os, const std::vector<StackedBar>& bars,
                        const std::vector<char>& segment_glyphs,
                        int width = 50);

}  // namespace sbgp::util

#endif  // SBGP_UTIL_CHART_H
