// The pipeline benchmark's workloads and the metrics they report.
//
// A run synthesizes one workload's inputs from its seed (untimed), then
// repeats passes of the workload until the measuring time is used up. Each
// pass times calls into the csb layers through a Probe and checks every
// output; the reported metrics are medians over passes. See README.md for
// why each workload exists and which layer metric should move which
// end-to-end metric.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// The end-to-end metrics every workload reports (untraced runs).
const std::vector<MetricSpec>& end_to_end_metrics();

/// The per-layer metrics every workload reports (traced runs); layers a
/// workload does not call read 0.
const std::vector<MetricSpec>& per_layer_metrics();

const std::vector<std::string>& workload_names();

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measuring time: passes repeat until it is used up (at least three).
  double seconds = 10.0;
  /// Traced run: alternate traced and untraced passes and report the
  /// per-layer metrics, then repeat one pass on a one-thread pool and
  /// compare its output digest.
  bool trace = false;
  /// Multiplies every input size; the benchmark runs at 1, tests smaller.
  double scale = 1.0;
  /// Worker pool size and query client count (the benchmark uses nproc).
  std::size_t threads = 1;
  /// Scratch directory for the capture, shard store and spill runs.
  std::string work_dir = ".bench_work";
  /// Where a traced run writes its csb.trace.v1 NDJSON; empty = nowhere.
  std::string trace_path;
  /// Extra meta attributes for the trace (the host fingerprint).
  std::vector<std::pair<std::string, std::string>> meta;
};

struct MetricValue {
  std::string name;
  std::string unit;
  std::optional<double> value;  ///< empty = could not be measured
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< one line per failed check
  std::vector<MetricValue> metrics;
  /// Digest of the run's outputs; equal for equal seeds and sizes.
  std::uint64_t digest = 0;
  std::size_t passes = 0;
  /// Per completed pass: (traced, setup_s, wall_s), in run order.
  struct PassTiming {
    bool traced = false;
    double setup_s = 0.0;
    double wall_s = 0.0;
  };
  std::vector<PassTiming> pass_timings;
  /// Input sizes, for the host fingerprint.
  std::vector<std::pair<std::string, std::string>> sizes;
};

/// Runs one workload. Throws csb::CsbError only for a bad workload name;
/// failures inside the run are counted into the result.
RunResult run_workload(const RunOptions& options);

}  // namespace perfbench
