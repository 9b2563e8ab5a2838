// The end-to-end campaign benchmark driver.
//
//   sbgp_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --repo-root DIR --work-dir DIR
//
// Closed loop, one caller: each timed repetition is one awaited
// sim::run_campaign call on one long-lived BatchExecutor. Every run first
// checks correctness untimed — the committed baselines are reproduced,
// sampled destination groups of analyze_sweep are diffed against the full
// engine, and a reference call's streamed CSV, cold rows and warm rows
// are checked — and then:
//
//   --trace 0  times the workload for S seconds with tracing off and
//              prints the end-to-end metrics (medians over repetitions);
//   --trace 1  replays the workload stage by stage through the library's
//              public functions with a span around each call (replay.h)
//              for S seconds and prints the per-layer metrics.
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics": {name: {"value", "unit"}}}. Lines before it start
// with '#' and give the run's provenance and each metric's sample count
// and tail. Exit status: 0 clean, 1 a correctness check failed (the JSON
// line says "correct": false), 2 usage or environment error (no JSON).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "checks.h"
#include "replay.h"
#include "sim/batch_executor.h"
#include "sim/campaign_cache.h"
#include "sim/campaign_io.h"
#include "sim/experiment.h"
#include "summary.h"
#include "topology/registry.h"
#include "trace.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

// Worker cap: the executor never has more workers than this or nproc.
constexpr std::size_t kMaxWorkers = 4;
// Set-up is repeated until this much time was spent on it (at least
// kMinSamples times, at most kMaxSetupReps).
constexpr double kSetupBudgetS = 1.0;
constexpr std::size_t kMaxSetupReps = 50;
// Warm (all-hit) calls: kWarmSamples samples of at least kWarmSampleS
// each.
constexpr std::size_t kWarmSamples = 5;
constexpr double kWarmSampleS = 0.05;
// Untraced calls whose CPU and wall time give sim.executor.busy_frac.
constexpr std::size_t kBusyReps = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string repo_root;
  std::string work_dir;
};

class UsageError : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

std::uint64_t parse_uint(const std::string& flag, const std::string& v) {
  std::size_t used = 0;
  unsigned long long x = 0;
  try {
    x = std::stoull(v, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != v.size() || v[0] == '-') {
    throw UsageError(flag + " wants a non-negative integer, got '" + v + "'");
  }
  return x;
}

Args parse_args(int argc, char** argv) {
  Args a;
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw UsageError("expected '--flag value', got '" + flag + "'");
    }
    kv[flag] = argv[++i];
  }
  for (const char* required : {"--workload", "--seed", "--seconds", "--trace",
                               "--repo-root", "--work-dir"}) {
    if (kv.count(required) == 0) {
      throw UsageError(std::string("missing ") + required);
    }
  }
  a.workload = kv["--workload"];
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    throw UsageError("unknown workload '" + a.workload + "'");
  }
  a.seed = parse_uint("--seed", kv["--seed"]);
  a.seconds = static_cast<double>(parse_uint("--seconds", kv["--seconds"]));
  if (a.seconds < 1) throw UsageError("--seconds must be at least 1");
  const std::string trace = kv["--trace"];
  if (trace != "0" && trace != "1") throw UsageError("--trace wants 0 or 1");
  a.trace = trace == "1";
  a.repo_root = kv["--repo-root"];
  a.work_dir = kv["--work-dir"];
  if (kv.size() != 6) throw UsageError("unknown flag");
  return a;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Collects check failures; the first few are printed, any makes the run
/// incorrect.
struct CheckLog {
  std::vector<std::string> failures;
  void expect(const std::string& failure) {
    if (!failure.empty()) failures.push_back(failure);
  }
};

/// One awaited run_campaign call, timed.
struct Call {
  sbgp::sim::CampaignResult result;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double first_row_s = 0.0;
  std::size_t pairs_computed = 0;
};

Call call_campaign(const Workload& w, sbgp::sim::BatchExecutor& exec,
                   const std::string& cache_dir,
                   const std::string& stream_path) {
  sbgp::sim::CampaignSpec campaign = w.campaign;
  campaign.cache_dir = cache_dir;
  std::ofstream stream(stream_path);
  sbgp::sim::TrialRowCsvAppender appender(stream);
  std::optional<Clock::time_point> first_row;
  const sbgp::sim::RowSink sink = [&](const sbgp::sim::CampaignTrialRow& r) {
    if (!first_row) first_row = Clock::now();
    appender.append(r);
  };
  Call c;
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  c.result = sbgp::sim::run_campaign(campaign, {0, &exec}, sink);
  c.wall_s = seconds_since(t0);
  c.cpu_s = process_cpu_s() - cpu0;
  c.first_row_s =
      first_row ? std::chrono::duration<double>(*first_row - t0).count()
                : c.wall_s;
  stream.close();
  if (!stream) throw std::runtime_error("cannot write " + stream_path);
  // A warm (all-hit) call computes nothing; cold and uncached calls
  // compute every row.
  if (c.result.cache_hits == 0) {
    for (const auto& row : c.result.trial_rows) {
      c.pairs_computed += row.row.stats.pairs;
    }
  }
  return c;
}

std::size_t num_cells(const Workload& w) {
  return w.campaign.trials * w.campaign.experiments.size();
}

/// The checks every call's output must pass against the reference rows.
void check_call(const Call& c, const Workload& w, const Rows& reference,
                const std::string& stream_path, CheckLog& log) {
  const auto& r = c.result;
  if (!r.failed_cells.empty()) {
    log.expect(std::to_string(r.failed_cells.size()) +
               " failed cell(s), first: " + r.failed_cells.front().error);
  }
  if (r.trial_rows.size() != num_cells(w)) {
    log.expect("expected " + std::to_string(num_cells(w)) + " rows, got " +
               std::to_string(r.trial_rows.size()));
  }
  if (serialize_rows(r.trial_rows, false) != serialize_rows(reference, false)) {
    log.expect("rows differ from the reference call:\n" +
               compare_rows(reference, r.trial_rows));
  }
  log.expect(check_stream(stream_path, r.trial_rows, false));
}

/// Set-up as a user pays it before the first engine unit: executor start,
/// the topology file load (file-backed workloads), the cache consult of
/// every cell (cached workloads; all miss in an empty directory), and
/// generation, tier classification and spec resolution of the first
/// trial.
double setup_once(const Workload& w, std::size_t workers,
                  const std::string& cache_dir) {
  fs::remove_all(cache_dir);
  const auto& c = w.campaign;
  const auto t0 = Clock::now();
  sbgp::sim::BatchExecutor exec(workers);
  exec.run(workers, [](std::size_t, std::size_t) {});
  register_inputs(w);
  if (w.timed_with_cache) {
    sbgp::sim::CampaignCache cache(cache_dir);
    const std::uint64_t topo_fp =
        sbgp::topology::topology_fingerprint(c.topology);
    for (std::size_t t = 0; t < c.trials; ++t) {
      const std::uint64_t seed =
          sbgp::topology::trial_seed(c.seed, c.topology, t);
      for (const auto& spec : c.experiments) {
        if (cache.lookup({topo_fp, seed, sbgp::sim::spec_fingerprint(spec)})) {
          throw std::logic_error("set-up: hit in an empty cache directory");
        }
      }
    }
  }
  const auto topo = sbgp::topology::generate_trial(c.topology, c.seed, 0);
  const auto tiers = topo.classify();
  sbgp::sim::ExperimentResolver resolver(topo.graph, tiers, topo.sample_salt);
  for (const auto& spec : c.experiments) (void)resolver.resolve(spec);
  return seconds_since(t0);
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  std::ostringstream out;
  out << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return out.str();
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "" : ", ") << '"' << metrics[i].name
        << "\": {\"value\": " << json_number(metrics[i].value)
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

/// Median of `values` as a metric, with its sample count and tail on a
/// '#' line.
Metric summarized(const std::string& name, const std::string& unit,
                  const std::vector<double>& values) {
  const Summary s = summarize(values, name);
  std::cout << "# " << name << ": median " << json_number(s.median) << ' '
            << unit << " over " << s.count << " sample(s), quartiles "
            << json_number(quantile(values, 0.25)) << ' '
            << json_number(quantile(values, 0.75));
  if (s.tail_p) {
    std::cout << ", p" << static_cast<int>(std::lround(*s.tail_p * 100)) << ' '
              << json_number(s.tail);
  }
  std::cout << '\n';
  return {name, unit, s.median};
}

// The per-layer stages of the traced replay, in report order.
const std::vector<std::string>& stage_names() {
  static const std::vector<std::string> names = {
      "topology.load_file",
      "topology.generate_trial",
      "topology.classify",
      "deployment.resolve",
      "sim.sweep",
      "routing.baseline_normal",
      "routing.baseline_insecure",
      "routing.attacked_full",
      "routing.attacked_seeded",
      "routing.empty_seeded",
      "security.partition_context",
      "security.accumulate.happiness",
      "security.accumulate.partitions",
      "security.accumulate.downgrades",
      "security.accumulate.collateral",
      "security.accumulate.root_causes",
      "sim.cache_store",
      "sim.cache_lookup",
      "sim.io_write",
      "sim.io_read",
  };
  return names;
}

// Counters the replay records, each reported after its stage's metrics:
// name and unit.
const std::vector<std::pair<std::string, std::string>>& stage_counters() {
  static const std::vector<std::pair<std::string, std::string>> counters = {
      {"sim.cache_store.bytes", "bytes"},
      {"sim.cache_lookup.hits", "count"},
      {"sim.io_write.bytes", "bytes"},
  };
  return counters;
}

bool is_sweep_stage(const std::string& stage) {
  return stage.rfind("routing.", 0) == 0 || stage.rfind("security.", 0) == 0;
}

struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
};

/// One repetition of the workload's timed call: uncached, or cold into an
/// emptied cache directory for workloads timed with the cache. Its output
/// is checked against the reference rows and counted in `out`.
Call timed_call(const Args& args, const Workload& w,
                sbgp::sim::BatchExecutor& exec, const Rows& reference,
                CheckLog& log, Outcome& out) {
  const std::string cold_cache = args.work_dir + "/cold-cache";
  const std::string stream_path = args.work_dir + "/stream.csv";
  std::string cache_dir;
  if (w.timed_with_cache) {
    fs::remove_all(cold_cache);
    cache_dir = cold_cache;
  }
  Call c = call_campaign(w, exec, cache_dir, stream_path);
  check_call(c, w, reference, stream_path, log);
  if (w.timed_with_cache && c.result.cache_misses != num_cells(w)) {
    log.expect("cold call was served from the cache");
  }
  out.attempted += num_cells(w);
  out.failed += c.result.failed_cells.size();
  fs::remove_all(cold_cache);
  return c;
}

/// Timed, untraced repetitions: the end-to-end metrics.
Outcome run_timed(const Args& args, const Workload& w,
                  sbgp::sim::BatchExecutor& exec, const Rows& reference,
                  const std::vector<double>& setup, CheckLog& log) {
  Outcome out;
  std::vector<double> wall, rate, cpu, first_row;
  const auto t0 = Clock::now();
  while (wall.size() < kMinSamples || seconds_since(t0) < args.seconds) {
    const Call c = timed_call(args, w, exec, reference, log, out);
    wall.push_back(c.wall_s);
    rate.push_back(static_cast<double>(c.pairs_computed) / c.wall_s);
    cpu.push_back(c.cpu_s);
    first_row.push_back(c.first_row_s);
  }
  out.metrics = {
      summarized("wall_s", "s", wall),
      summarized("pairs_per_s", "1/s", rate),
      summarized("cpu_s", "s", cpu),
      {"peak_rss_mb", "MB", peak_rss_mb()},
      summarized("setup_s", "s", setup),
      summarized("first_row_s", "s", first_row),
  };
  return out;
}

/// Wall time of the workload's campaign served entirely from the cache
/// (the reference call's directory). Each sample is the mean of
/// back-to-back warm calls spanning at least kWarmSampleS: a warm call of
/// a few cells takes tens of microseconds, too short for one reading to
/// rise above syscall noise.
std::vector<double> warm_samples(const Args& args, const Workload& w,
                                 sbgp::sim::BatchExecutor& exec,
                                 const Rows& reference,
                                 const std::string& reference_cache,
                                 CheckLog& log, Outcome& out) {
  const std::string stream_path = args.work_dir + "/stream.csv";
  std::vector<double> warm;
  while (warm.size() < kWarmSamples) {
    double total = 0.0;
    std::size_t calls = 0;
    while (total < kWarmSampleS) {
      const Call c = call_campaign(w, exec, reference_cache, stream_path);
      check_call(c, w, reference, stream_path, log);
      if (c.result.cache_hits != num_cells(w)) {
        log.expect("warm call missed the cache " +
                   std::to_string(c.result.cache_misses) + " time(s)");
      }
      out.attempted += num_cells(w);
      out.failed += c.result.failed_cells.size();
      total += c.wall_s;
      ++calls;
    }
    warm.push_back(total / static_cast<double>(calls));
  }
  return warm;
}

/// Untraced busy fraction and warm-call time, the 1-worker sweep basis,
/// and traced replays: the per-layer metrics.
Outcome run_traced(const Args& args, const Workload& w,
                   sbgp::sim::BatchExecutor& exec, const Rows& reference,
                   const std::string& reference_cache, CheckLog& log) {
  Outcome out;
  std::vector<double> busy;
  for (std::size_t i = 0; i < kBusyReps; ++i) {
    const Call c = timed_call(args, w, exec, reference, log, out);
    busy.push_back(c.cpu_s /
                   (c.wall_s * static_cast<double>(exec.num_workers())));
  }
  const auto warm =
      warm_samples(args, w, exec, reference, reference_cache, log, out);

  const SweepBasis basis = untraced_sweeps(w, exec);
  std::cout << "# trace basis: untraced 1-worker analyze_sweep over "
            << basis.cells.size() << " cell(s): cpu "
            << json_number(basis.cpu_s) << " s, wall "
            << json_number(basis.wall_s) << " s\n";
  for (std::size_t i = 0; i < basis.cells.size(); ++i) {
    if (!(basis.cells[i] == reference[i].row.stats)) {
      log.expect(
          "1-worker analyze_sweep differs from the campaign row of cell " +
          std::to_string(i));
    }
  }

  std::map<std::string, std::vector<double>> self_s;
  std::map<std::string, std::size_t> calls;
  std::map<std::string, std::uint64_t> counters;
  std::vector<double> closure, overhead;
  const auto t0 = Clock::now();
  do {
    Tracer tracer;
    const Rows rows = traced_replay(w, tracer, args.work_dir);
    log.expect(compare_rows(reference, rows));
    out.attempted += num_cells(w);
    const auto totals = tracer.totals();
    double leaf_self = 0.0;
    for (const auto& stage : stage_names()) {
      const auto it = totals.find(stage);
      const Tracer::StageTotals t =
          it == totals.end() ? Tracer::StageTotals{} : it->second;
      self_s[stage].push_back(t.self_s);
      if (closure.empty()) {
        calls[stage] = t.calls;
      } else if (calls[stage] != t.calls) {
        log.expect("traced replays disagree on " + stage + " calls");
      }
      if (is_sweep_stage(stage)) leaf_self += t.self_s;
    }
    closure.push_back(leaf_self / basis.cpu_s);
    const auto sweep = totals.find("sim.sweep");
    overhead.push_back(
        (sweep == totals.end() ? 0.0 : sweep->second.total_s) / basis.wall_s);
    for (const auto& [name, unit] : stage_counters()) {
      counters[name] = tracer.counter(name);
    }
    tracer.write_json(args.work_dir + "/trace-" + w.name + ".json");
  } while (seconds_since(t0) < args.seconds);
  std::cout << "# traced replays: " << closure.size()
            << "; trace.closure = sum of routing.* and security.* self time / "
               "basis cpu; trace.overhead = traced sim.sweep wall / basis "
               "wall\n";

  const auto median_of = [](const std::vector<double>& v) {
    return quantile(v, 0.5);
  };
  for (const auto& stage : stage_names()) {
    out.metrics.push_back(
        {stage + ".calls", "count", static_cast<double>(calls[stage])});
    out.metrics.push_back({stage + ".self_s", "s", median_of(self_s[stage])});
    for (const auto& [name, unit] : stage_counters()) {
      if (name.rfind(stage + ".", 0) == 0) {
        out.metrics.push_back(
            {name, unit, static_cast<double>(counters[name])});
      }
    }
  }
  const double seeded = static_cast<double>(calls["routing.attacked_seeded"]);
  const double attacked =
      seeded + static_cast<double>(calls["routing.attacked_full"]);
  out.metrics.push_back(
      {"routing.seed_ratio", "ratio", attacked == 0 ? 0.0 : seeded / attacked});
  out.metrics.push_back({"sim.executor.busy_frac", "ratio", median_of(busy)});
  out.metrics.push_back({"sim.warm_call.wall_s", "s", median_of(warm)});
  out.metrics.push_back({"trace.closure", "ratio", median_of(closure)});
  out.metrics.push_back({"trace.overhead", "ratio", median_of(overhead)});
  return out;
}

/// Correctness checks, then the timed or traced measurement. Returns
/// without metrics as soon as a check before the measurement fails.
Outcome check_and_measure(const Args& args, const Workload& w,
                          std::size_t workers, CheckLog& log) {
  sbgp::sim::BatchExecutor exec(workers);
  log.expect(preflight(args.repo_root, exec));
  if (!log.failures.empty()) return {};
  register_inputs(w);
  log.expect(check_sweep_differential(w, args.seed, exec));

  // The untimed reference call: cold into an empty cache, then warm.
  const std::string reference_cache = args.work_dir + "/reference-cache";
  const std::string stream_path = args.work_dir + "/stream.csv";
  fs::remove_all(reference_cache);
  const Call cold = call_campaign(w, exec, reference_cache, stream_path);
  const Rows& reference = cold.result.trial_rows;
  check_call(cold, w, reference, stream_path, log);
  if (cold.result.cache_misses != num_cells(w) ||
      cold.result.cache_store_failures != 0) {
    log.expect("reference call did not compute and store every cell");
  }
  const Call warm = call_campaign(w, exec, reference_cache, stream_path);
  check_call(warm, w, reference, stream_path, log);
  if (warm.result.cache_hits != num_cells(w)) {
    log.expect("warm reference call missed the cache");
  }
  if (!log.failures.empty()) return {};

  if (args.trace) {
    return run_traced(args, w, exec, reference, reference_cache, log);
  }
  const std::string setup_cache = args.work_dir + "/setup-cache";
  std::vector<double> setup;
  const auto t0 = Clock::now();
  while (setup.size() < kMinSamples ||
         (setup.size() < kMaxSetupReps && seconds_since(t0) < kSetupBudgetS)) {
    setup.push_back(setup_once(w, workers, setup_cache));
  }
  fs::remove_all(setup_cache);
  return run_timed(args, w, exec, reference, setup, log);
}

int run(const Args& args) {
  fs::create_directories(args.work_dir);
  const std::size_t workers = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, kMaxWorkers);
  const char* git_rev = std::getenv("SBGP_GIT_REV");
  std::cout << "# perfbench workload=" << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace
            << " nproc=" << std::thread::hardware_concurrency()
            << " workers=" << workers << " compiler=\"g++ " << __VERSION__
            << "\" build_type=" << PERFBENCH_BUILD_TYPE
            << " git_rev=" << (git_rev != nullptr ? git_rev : "unknown")
            << '\n';

  const Workload w = make_workload(args.workload, args.seed, args.work_dir);
  CheckLog log;
  Outcome out;
  try {
    out = check_and_measure(args, w, workers, log);
  } catch (const std::exception& e) {
    // Diverging rows can surface as exceptions too — e.g. a row the
    // legacy CSV layout cannot hold — so any error here fails the run.
    log.expect(std::string("error while checking or measuring: ") + e.what());
  }
  for (std::size_t i = 0; i < log.failures.size() && i < 5; ++i) {
    std::cerr << "check failed: " << log.failures[i] << '\n';
  }
  print_result(log.failures.empty(), std::max<std::size_t>(out.attempted, 1),
               out.failed, log.failures.empty() ? out.metrics
                                                : std::vector<Metric>{});
  return log.failures.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const UsageError& e) {
    std::cerr << "usage error: " << e.what()
              << "\nusage: sbgp_perfbench --workload NAME --seed N --seconds S"
                 " --trace 0|1 --repo-root DIR --work-dir DIR\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
}
