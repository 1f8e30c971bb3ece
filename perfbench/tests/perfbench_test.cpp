// Tests of the pipeline benchmark itself: the tail-percentile rule, failure
// counting, the metric catalogue against BENCHMARK.json, and output-digest
// stability of every workload at a tiny size.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "obs/json.hpp"
#include "probe.hpp"
#include "util/error.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> values(static_cast<std::size_t>(n));
  std::iota(values.begin(), values.end(), 1.0);
  return values;
}

TEST(TailValue, LeavesExactlyTenSamplesBeyond) {
  EXPECT_EQ(tail_value(one_to(100)), 90.0);
  EXPECT_EQ(tail_value(one_to(1000)), 990.0);
  EXPECT_EQ(tail_value(one_to(11)), 1.0);
  std::vector<double> shuffled = one_to(50);
  std::reverse(shuffled.begin(), shuffled.end());
  EXPECT_EQ(tail_value(shuffled), 40.0);
}

TEST(TailValue, FallsBackToTheMaximumBelowElevenSamples) {
  EXPECT_EQ(tail_value(one_to(10)), 10.0);
  EXPECT_EQ(tail_value({3.0}), 3.0);
  EXPECT_EQ(tail_value({}), 0.0);
}

TEST(OrderStatistics, MedianAndNearestRankPercentile) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(percentile(one_to(100), 0.99), 99.0);
  EXPECT_EQ(percentile(one_to(100), 0.5), 50.0);
  EXPECT_EQ(percentile(one_to(3), 1.0), 3.0);
}

TEST(Tally, CountsChecksThrownOperationsAndAttempts) {
  Tally tally;
  tally.expect(true, "holds");
  tally.expect(false, "does not hold");
  EXPECT_TRUE(tally.guard("quiet", [] {}));
  EXPECT_FALSE(tally.guard("layer", [] { throw csb::CsbError("corrupt"); }));
  tally.attempt(6);
  EXPECT_EQ(tally.attempted(), 10u);
  EXPECT_EQ(tally.failed(), 2u);
  EXPECT_DOUBLE_EQ(tally.failed_frac(), 0.2);
  ASSERT_EQ(tally.messages().size(), 2u);
  EXPECT_EQ(tally.messages()[0], "does not hold");
  EXPECT_EQ(tally.messages()[1], "layer threw: corrupt");
}

TEST(Tally, KeepsOnlyTheFirstMessages) {
  Tally tally;
  for (int i = 0; i < 100; ++i) tally.expect(false, std::to_string(i));
  EXPECT_EQ(tally.failed(), 100u);
  EXPECT_EQ(tally.messages().size(), Tally::kMaxMessages);
  EXPECT_EQ(tally.messages().front(), "0");
}

TEST(Digest, IsOrderSensitiveAndCoversEveryByte) {
  Digest a;
  a.add(1);
  a.add(2);
  Digest b;
  b.add(2);
  b.add(1);
  EXPECT_NE(a.value(), b.value());
  Digest c;
  c.add_bytes("123456789");
  Digest d;
  d.add_bytes("123456788");
  EXPECT_NE(c.value(), d.value());
}

TEST(Probe, NestedLayersSumOnlyAtTheTop) {
  Probe probe;
  const int result = probe.layer("outer", [&] {
    probe.layer("inner", [] {});
    return 7;
  });
  EXPECT_EQ(result, 7);
  EXPECT_EQ(probe.layers().at("outer").calls, 1u);
  EXPECT_EQ(probe.layers().at("inner").calls, 1u);
  EXPECT_EQ(probe.top_level_wall_s({"outer", "inner"}),
            probe.layers().at("outer").wall_s);
  if (reset_peak_rss()) {
    ASSERT_TRUE(probe.layers().at("outer").peak_rss_mib.has_value());
    EXPECT_GE(*probe.layers().at("outer").peak_rss_mib,
              *probe.layers().at("inner").peak_rss_mib);
  }
}

std::vector<std::string> names_in(const csb::JsonValue& list) {
  std::vector<std::string> names;
  for (const csb::JsonValue& item : list.items()) {
    names.push_back(item.at("name").as_string());
  }
  return names;
}

template <class T>
std::vector<std::string> names_of(const std::vector<T>& specs) {
  std::vector<std::string> names;
  for (const auto& spec : specs) {
    if constexpr (std::is_same_v<T, std::string>) {
      names.push_back(spec);
    } else {
      names.push_back(spec.name);
    }
  }
  return names;
}

TEST(Catalogue, MatchesBenchmarkJson) {
  std::ifstream in(std::string(PERFBENCH_REPO_ROOT) + "/BENCHMARK.json");
  ASSERT_TRUE(in) << "BENCHMARK.json next to perfbench/";
  std::stringstream text;
  text << in.rdbuf();
  const csb::JsonValue benchmark = csb::parse_json(text.str());
  EXPECT_EQ(names_in(benchmark.at("workloads")), names_of(workload_names()));
  EXPECT_EQ(names_in(benchmark.at("end_to_end")),
            names_of(end_to_end_metrics()));
  EXPECT_EQ(names_in(benchmark.at("per_layer")), names_of(per_layer_metrics()));
  for (const auto& metric : benchmark.at("end_to_end").items()) {
    for (const MetricSpec& spec : end_to_end_metrics()) {
      if (spec.name == metric.at("name").as_string()) {
        EXPECT_EQ(spec.unit, metric.at("unit").as_string());
      }
    }
  }
}

RunOptions tiny(const std::string& workload, std::uint64_t seed,
                std::size_t threads) {
  RunOptions options;
  options.workload = workload;
  options.seed = seed;
  options.seconds = 0.0;
  options.scale = 0.005;
  options.threads = threads;
  options.work_dir = std::string(PERFBENCH_TEST_WORK_DIR) + "/" + workload;
  return options;
}

class WorkloadDigest : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadDigest, StableForASeedAndPoolSize) {
  const RunResult first = run_workload(tiny(GetParam(), 7, 3));
  EXPECT_EQ(first.failed, 0u) << (first.failures.empty() ? ""
                                                         : first.failures[0]);
  EXPECT_EQ(first.passes, 3u);
  EXPECT_NE(first.digest, 0u);
  const RunResult again = run_workload(tiny(GetParam(), 7, 1));
  EXPECT_EQ(again.failed, 0u);
  EXPECT_EQ(again.digest, first.digest);
  const RunResult other = run_workload(tiny(GetParam(), 8, 3));
  EXPECT_NE(other.digest, first.digest);
  for (const MetricValue& metric : first.metrics) {
    ASSERT_TRUE(metric.value.has_value()) << metric.name;
    EXPECT_GT(*metric.value, 0.0) << metric.name;
  }
}

TEST_P(WorkloadDigest, TracedRunReportsEveryLayerMetric) {
  RunOptions options = tiny(GetParam(), 7, 2);
  options.trace = true;
  options.trace_path = options.work_dir + "/trace.ndjson";
  const RunResult traced = run_workload(options);
  EXPECT_EQ(traced.failed, 0u) << (traced.failures.empty()
                                       ? ""
                                       : traced.failures[0]);
  EXPECT_EQ(names_of(traced.metrics), names_of(per_layer_metrics()));
  EXPECT_EQ(traced.digest, run_workload(tiny(GetParam(), 7, 3)).digest);
  std::vector<std::string> errors;
  csb::parse_trace_file(options.trace_path, &errors);
  EXPECT_TRUE(errors.empty());
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadDigest,
                         ::testing::ValuesIn(workload_names()),
                         [](const auto& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

TEST(RunWorkload, RejectsAnUnknownWorkload) {
  EXPECT_THROW(run_workload(tiny("no-such-workload", 1, 1)), csb::CsbError);
}

}  // namespace
}  // namespace perfbench
