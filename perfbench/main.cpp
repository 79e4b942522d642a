// perfbench — the repository's benchmark: four workloads, end-to-end
// metrics, and a traced per-layer run.
//
// Usage: perfbench --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
//                  [--spans-out FILE]
//
// --spans-out names the file a traced run writes its spans to, one JSON
// object per line.
//
// Per workload: set up three times from cold — clear the clear-sky memo,
// create the pool (and sink), run one repetition — and report the median
// as setup_s.  Then repeat the workload for S seconds (at least three
// times); no timed repetition may miss the clear-sky memo.  Last, every
// repetition's output digest is checked against a serial reference for the
// seed, computed after the timing so it shows neither in setup_s nor in
// peak_rss_mb.  With --trace 0 the end-to-end metrics come from the timed
// repetitions.  With --trace 1, traced and untraced repetitions
// alternate (their ratio is bench.trace_overhead_pct) and the per-layer
// suite runs afterwards.  Human-readable lines come first; the last line of
// standard output is one JSON object.  The exit code is 0 only when every
// check passed.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "layers.hpp"
#include "rusage.hpp"
#include "solar/clearsky.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kSetupRounds = 3;
constexpr std::size_t kMinRepetitions = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
};

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Repetitions attempted and failed.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

struct WorkloadResult {
  std::vector<Metric> metrics;  ///< end-to-end, or the traced overhead.
  Tally tally;
};

/// Runs one repetition.  A warm repetition must not miss the clear-sky
/// memo: memo fill belongs to set-up, never to wall_s.
RepOutput RunRep(Workload& workload, SpanRecorder* spans, bool warm) {
  RepOutput rep;
  const std::uint64_t misses_before = shep::GetClearSkyMemoStats().misses;
  try {
    rep = workload.Run(spans);
  } catch (const std::exception& e) {
    rep.error = std::string("threw: ") + e.what();
  }
  if (rep.error.empty() && warm &&
      shep::GetClearSkyMemoStats().misses != misses_before) {
    rep.error = "a timed repetition missed the clear-sky memo";
  }
  return rep;
}

/// Checks every repetition against the serial reference and counts the
/// failures, reporting each on stderr.
Tally CheckReps(const std::string& name, Workload& workload,
                std::vector<RepOutput>& reps) {
  std::string reference_error;
  std::uint64_t reference = 0;
  try {
    reference = workload.ReferenceDigest();
  } catch (const std::exception& e) {
    reference_error = std::string("reference threw: ") + e.what();
  }
  Tally tally;
  for (RepOutput& rep : reps) {
    ++tally.attempted;
    if (rep.error.empty()) rep.error = reference_error;
    if (rep.error.empty() && rep.digest != reference) {
      rep.error = "output differs from the serial reference";
    }
    if (!rep.error.empty()) {
      ++tally.failed;
      std::cerr << "perfbench: " << name << ": repetition " << tally.attempted
                << ": " << rep.error << "\n";
    }
  }
  return tally;
}

/// Six significant digits, for the human-readable lines.
std::string Brief(double value) {
  std::ostringstream os;
  os << std::setprecision(6) << value;
  return os.str();
}

WorkloadResult RunWorkload(const std::string& name, const Options& options,
                           SpanRecorder& spans) {
  WorkloadResult result;
  std::unique_ptr<Workload> workload = MakeWorkload(name, options.seed);
  std::vector<RepOutput> reps;

  std::vector<double> setup;
  for (int round = 0; round < kSetupRounds; ++round) {
    workload->ReleaseResources();
    shep::ClearClearSkyMemo();
    const double begin = Now();
    workload->CreateResources();
    reps.push_back(RunRep(*workload, nullptr, false));
    setup.push_back(Now() - begin);
  }

  // Warm, timed repetitions.  In a traced run every second repetition
  // records spans, so both kinds see the same machine state.
  std::vector<double> wall;
  std::vector<double> traced_wall;
  std::vector<double> cpu;
  const double deadline = Now() + options.seconds;
  for (std::size_t i = 0;; ++i) {
    const bool traced = options.trace && i % 2 == 1;
    const bool enough =
        wall.size() >= kMinRepetitions &&
        (!options.trace || traced_wall.size() >= kMinRepetitions);
    if (enough && Now() >= deadline) break;
    const double cpu_before = TotalCpuSeconds();
    const double begin = Now();
    reps.push_back(RunRep(*workload, traced ? &spans : nullptr, true));
    (traced ? traced_wall : wall).push_back(Now() - begin);
    if (!traced) cpu.push_back(TotalCpuSeconds() - cpu_before);
  }
  // Read before the reference runs, so the peak is the workload's own.
  const double peak_rss_mb = PeakRssMb();
  workload->ReleaseResources();
  result.tally = CheckReps(name, *workload, reps);
  const Tally& tally = result.tally;

  const Quartiles q = ComputeQuartiles(wall);
  std::ostream& os = std::cout;
  os << name << " wall_s " << Brief(q.q2) << " s  (q1 " << Brief(q.q1)
     << ", q3 " << Brief(q.q3) << ", n=" << wall.size();
  if (const auto tail = HighestTail(wall)) {
    os << ", p" << tail->percentile << " " << Brief(tail->value) << " with "
       << tail->beyond << " beyond";
  } else {
    os << ", no tail percentile with >= " << kMinBeyond << " samples beyond";
  }
  os << ")\n";
  const double setup_s = Median(setup);
  os << name << " setup_s " << Brief(setup_s) << " s  (median of "
     << setup.size() << " cold set-ups)\n";
  os << name << " " << workload->throughput_metric() << " "
     << Brief(workload->work_units() / q.q2) << " 1/s\n";
  os << name << " cpu_s " << Brief(Median(cpu)) << " s\n";
  os << name << " peak_rss_mb " << Brief(peak_rss_mb) << " MiB\n";
  os << name << " failed_frac "
     << Brief(static_cast<double>(tally.failed) /
              static_cast<double>(tally.attempted))
     << " ratio  (" << tally.failed << " of " << tally.attempted << ")\n";
  os << name << (name == "paper_sweep" ? " best_mape_pct " : " mape_pct ")
     << Brief(workload->mape_pct()) << " %\n";

  if (options.trace) {
    const double overhead = 100.0 * (Median(traced_wall) / q.q2 - 1.0);
    result.metrics = {{"bench.trace_overhead_pct", overhead, "%"}};
  } else {
    result.metrics = {
        {"wall_s", q.q2, "s"},
        {"setup_s", setup_s, "s"},
        {"cpu_s", Median(cpu), "s"},
        {"peak_rss_mb", peak_rss_mb, "MiB"},
        {"mape_pct", workload->mape_pct(), "%"},
    };
  }
  return result;
}

void PrintJson(bool correct, const Tally& tally,
               const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << tally.attempted
     << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
       << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
       << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

int Usage() {
  std::cerr << "usage: perfbench --workload NAME|all [--seed N] [--seconds S]"
               " [--trace 0|1] [--spans-out FILE]\nworkloads:";
  for (const std::string& name : WorkloadNames()) std::cerr << " " << name;
  std::cerr << "\n";
  return 2;
}

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int a = 1; a < argc; ++a) {
    const std::string flag = argv[a];
    if (a + 1 >= argc) return false;
    const char* value = argv[++a];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return false;
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(options->seconds > 0.0)) {
        return false;
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      options->trace = value[0] == '1';
    } else if (flag == "--spans-out") {
      options->spans_out = value;
    } else {
      return false;
    }
  }
  return !options->workload.empty();
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseOptions(argc, argv, &options)) return Usage();
  std::vector<std::string> names;
  if (options.workload == "all") {
    names = WorkloadNames();
  } else if (MakeWorkload(options.workload, options.seed) != nullptr) {
    names = {options.workload};
  } else {
    return Usage();
  }

  SpanRecorder workload_spans;
  SpanRecorder layer_spans;
  Tally total;
  std::vector<Metric> metrics;
  bool correct = true;
  for (const std::string& name : names) {
    const WorkloadResult result = RunWorkload(name, options, workload_spans);
    total.attempted += result.tally.attempted;
    total.failed += result.tally.failed;
    for (Metric metric : result.metrics) {
      // Running every workload in one process prefixes each metric with
      // its workload so the names stay unique.
      if (names.size() > 1) metric.name = name + "." + metric.name;
      metrics.push_back(std::move(metric));
    }
  }
  if (options.trace) {
    ++total.attempted;
    try {
      for (Metric& metric : RunLayerSuite(options.seed, layer_spans)) {
        std::cout << "layer " << metric.name << " " << Brief(metric.value)
                  << " " << metric.unit << "\n";
        metrics.push_back(std::move(metric));
      }
    } catch (const std::exception& e) {
      ++total.failed;
      std::cerr << "perfbench: layer suite: " << e.what() << "\n";
    }
  }
  for (const Metric& metric : metrics) {
    if (!IsValidMetricName(metric.name)) {
      std::cerr << "perfbench: invalid metric name " << metric.name << "\n";
      correct = false;
    }
  }
  if (options.trace && !options.spans_out.empty()) {
    std::ofstream file(options.spans_out);
    workload_spans.WriteJsonLines(file, "workload");
    layer_spans.WriteJsonLines(file, "layers");
  }
  correct = correct && total.failed == 0;
  PrintJson(correct, total, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
