// perfbench — the csb pipeline benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--trace-out FILE] [--source-rev REV]
//
// Prints a host fingerprint line, one line per metric, and as the last line
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exit code 0 whenever a result line was printed; 2 on a usage error.
#include <sys/utsname.h>

#include <algorithm>
#include <cstdio>
#include <cmath>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "workloads.hpp"

namespace {

struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

std::map<std::string, std::string> parse_args(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw UsageError("unexpected '" + key + "'");
    key = key.substr(2);
    const auto eq = key.find('=');
    if (eq != std::string::npos) {
      args[key.substr(0, eq)] = key.substr(eq + 1);
    } else if (i + 1 < argc) {
      args[key] = argv[++i];
    } else {
      throw UsageError("--" + key + " needs a value");
    }
  }
  return args;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string kernel_release() {
  utsname name{};
  return uname(&name) == 0 ? name.release : "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::vector<std::pair<std::string, std::string>> fingerprint(
    const perfbench::RunOptions& options, const std::string& source_rev) {
  return {
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"cpu_model", cpu_model()},
      {"compiler", compiler()},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"source_rev", source_rev},
      {"kernel", kernel_release()},
      {"workload", options.workload},
      {"seed", std::to_string(options.seed)},
      {"scale", csb::json_number(options.scale)},
      {"threads", std::to_string(options.threads)},
  };
}

int run(int argc, char** argv) {
  const auto args = parse_args(argc, argv);
  const auto get = [&](const std::string& key, const std::string& fallback) {
    const auto it = args.find(key);
    return it == args.end() ? fallback : it->second;
  };
  for (const auto& [key, value] : args) {
    static const std::vector<std::string> known{
        "workload", "seed",      "seconds",   "trace",
        "work-dir", "trace-out", "source-rev"};
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      throw UsageError("unknown option --" + key);
    }
  }

  perfbench::RunOptions options;
  options.workload = get("workload", "");
  const auto& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), options.workload) == names.end()) {
    throw UsageError("--workload must be one of capture-ingest, pgsk-shards, "
                     "pgpba-query");
  }
  try {
    options.seed = std::stoull(get("seed", "1"));
    options.seconds = std::stod(get("seconds", "10"));
  } catch (const std::exception&) {
    throw UsageError("--seed and --seconds take numbers");
  }
  const std::string trace = get("trace", "0");
  if (trace != "0" && trace != "1") throw UsageError("--trace takes 0 or 1");
  options.trace = trace == "1";
  options.threads = std::max(1u, std::thread::hardware_concurrency());
  options.work_dir = get("work-dir", ".bench_work");
  options.trace_path = get("trace-out", "");
  options.meta = fingerprint(options, get("source-rev", "unknown"));

  const perfbench::RunResult result = perfbench::run_workload(options);

  csb::JsonValue line = csb::JsonValue::object({});
  for (const auto& [key, value] : options.meta) line.set(key, value);
  for (const auto& [key, value] : result.sizes) line.set(key, value);
  line.set("passes", static_cast<std::uint64_t>(result.passes));
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(result.digest));
  line.set("digest", std::string(digest));
  std::cout << "fingerprint " << line.dump() << "\n";
  const auto number = [](std::optional<double> value) {
    return value && std::isfinite(*value) ? csb::JsonValue(*value)
                                          : csb::JsonValue();
  };
  for (std::size_t i = 0; i < result.pass_timings.size(); ++i) {
    const auto& pass = result.pass_timings[i];
    std::cout << "pass " << i << (pass.traced ? " traced" : "")
              << ": setup_s " << number(pass.setup_s).dump() << ", wall_s "
              << number(pass.wall_s).dump() << "\n";
  }
  csb::JsonValue metrics = csb::JsonValue::object({});
  for (const auto& metric : result.metrics) {
    std::cout << "  " << metric.name << " = " << number(metric.value).dump()
              << " " << metric.unit << "\n";
    metrics.set(metric.name,
                csb::JsonValue::object({{"value", number(metric.value)},
                                        {"unit", metric.unit}}));
  }
  for (const std::string& failure : result.failures) {
    std::cout << "FAILED: " << failure << "\n";
  }
  const csb::JsonValue summary = csb::JsonValue::object({
      {"correct", result.failed == 0},
      {"attempted", result.attempted},
      {"failed", result.failed},
      {"metrics", std::move(metrics)},
  });
  std::cout << summary.dump() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const UsageError& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }
}
