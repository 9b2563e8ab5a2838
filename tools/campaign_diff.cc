// campaign_diff: compare two serialized campaign row sets — CI's
// baseline regression gate.
//
//   campaign_diff [--abs-tol T] [--stderr-scale S] [--adaptive]
//                 <baseline> <candidate>
//
// Each file may hold per-trial rows or aggregated rows (sim/campaign_io.h
// CSV formats); the kind is detected from the content, and both files must
// hold the same kind. Per-trial rows (raw
// integer counters) are compared exactly, column by column; aggregated
// rows are compared per metric within --abs-tol plus --stderr-scale times
// the rows' combined standard error (both default 0: exact).
//
// --adaptive compares an adaptive (sequentially-stopped) run against a
// fixed baseline: realized trial counts and stopping reasons are reported
// as notes instead of divergences, only the metric means are gated, and a
// per-trial file on either side is aggregated on the fly so a fixed
// per-trial baseline can gate an adaptive aggregated candidate.
//
// Exit status: 0 when the sets match, 1 on any divergence (a per-metric
// report goes to stdout), 2 on usage or I/O errors.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "sim/campaign_diff.h"
#include "sim/campaign_io.h"

namespace {

using sbgp::sim::CampaignRow;
using sbgp::sim::CampaignTrialRow;

void print_usage(std::ostream& os) {
  os << "usage: campaign_diff [--abs-tol T] [--stderr-scale S] [--adaptive]"
        " <baseline> <candidate>\n"
        "\n"
        "Compares two serialized campaign row sets (CSV, per-trial or\n"
        "aggregated — detected from the content; both files must hold the\n"
        "same kind). Per-trial rows are compared exactly; aggregated\n"
        "metric summaries within abs-tol + stderr-scale * combined stderr.\n"
        "--adaptive gates an adaptive run against a fixed baseline: trial\n"
        "counts and stopping reasons become notes, only metric means are\n"
        "compared, and per-trial files are aggregated on the fly.\n"
        "Exits 0 on a match, 1 on divergence (per-metric report printed),\n"
        "2 on usage or I/O errors.\n";
}

/// Either kind of row set, whichever the file turned out to hold.
using RowSet =
    std::variant<std::vector<CampaignTrialRow>, std::vector<CampaignRow>>;

/// Loads `path`, detecting per-trial vs aggregated rows (whichever reader
/// accepts). Throws std::invalid_argument with both readers' complaints
/// when neither accepts.
RowSet load_rows(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    throw std::invalid_argument("cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  std::string trial_error;
  try {
    std::istringstream is(text);
    return sbgp::sim::read_trial_rows_csv(is);
  } catch (const std::invalid_argument& e) {
    trial_error = e.what();
  }
  try {
    std::istringstream is(text);
    return sbgp::sim::read_campaign_rows_csv(is);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("'" + path +
                                "' holds neither per-trial rows (" +
                                trial_error + ") nor aggregated rows (" +
                                e.what() + ")");
  }
}

/// The real main; main() wraps it so *any* escaping exception — bad_alloc
/// during file slurp included, not just the anticipated parse errors —
/// reports as a usage/I/O failure instead of a std::terminate abort.
int run(int argc, char** argv) {
  sbgp::sim::DiffOptions opts;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      return 0;
    }
    if (arg == "--adaptive") {
      opts.adaptive = true;
      continue;
    }
    if (arg == "--abs-tol" || arg == "--stderr-scale") {
      if (i + 1 >= argc) {
        std::cerr << "campaign_diff: " << arg << " needs a value\n";
        print_usage(std::cerr);
        return 2;
      }
      char* end = nullptr;
      const double value = std::strtod(argv[++i], &end);
      if (end == argv[i] || *end != '\0' || value < 0.0) {
        std::cerr << "campaign_diff: bad " << arg << " value '" << argv[i]
                  << "'\n";
        return 2;
      }
      (arg == "--abs-tol" ? opts.abs_tol : opts.stderr_scale) = value;
      continue;
    }
    if (!arg.empty() && arg[0] == '-') {
      std::cerr << "campaign_diff: unknown option '" << arg << "'\n";
      print_usage(std::cerr);
      return 2;
    }
    paths.push_back(arg);
  }
  if (paths.size() != 2) {
    // A gate invoked with the wrong operand count (e.g. unset shell
    // variables) must fail, not silently pass: usage goes with exit 2.
    print_usage(std::cerr);
    return 2;
  }

  RowSet baseline = load_rows(paths[0]);
  RowSet candidate = load_rows(paths[1]);
  if (opts.adaptive) {
    // Adaptive gating always compares aggregated summaries; promote a
    // per-trial file (e.g. the committed fixed baseline) on the fly so
    // the two sides need not have been serialized the same way.
    for (RowSet* set : {&baseline, &candidate}) {
      if (set->index() == 0) {
        *set = sbgp::sim::aggregate_trial_rows(std::get<0>(*set));
      }
    }
  }
  if (baseline.index() != candidate.index()) {
    std::cerr << "campaign_diff: '" << paths[0] << "' and '" << paths[1]
              << "' hold different row kinds (per-trial vs aggregated)\n";
    return 2;
  }
  const sbgp::sim::DiffReport report =
      baseline.index() == 0
          ? diff_trial_rows(std::get<0>(baseline), std::get<0>(candidate))
          : diff_campaign_rows(std::get<1>(baseline), std::get<1>(candidate),
                               opts);
  print_diff_report(std::cout, report);
  return report.clean() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
}
