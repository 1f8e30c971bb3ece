#include "veracity/veracity.hpp"

#include <algorithm>

#include "graph/algorithms.hpp"
#include "graph/pagerank.hpp"
#include "stats/distance.hpp"
#include "stats/histogram.hpp"
#include "util/parallel.hpp"

namespace csb {

std::vector<double> normalized_degree_distribution(const CsrView& csr,
                                                   ThreadPool* pool) {
  std::vector<double> values(csr.num_vertices());
  // Each chunk fills its own disjoint slots; the serial normalize keeps
  // the float summation order fixed, so the result is pool-invariant.
  parallel_for_fixed_chunks(
      pool, 0, values.size(), std::size_t{1} << 16, [&](const ChunkRange& c) {
        for (std::size_t v = c.begin; v < c.end; ++v) {
          values[v] = static_cast<double>(csr.total_degree(v));
        }
      });
  return normalize_by_sum(values);
}

std::vector<double> normalized_degree_distribution(
    const PropertyGraph& graph) {
  const auto degrees = total_degrees(graph);
  std::vector<double> values(degrees.begin(), degrees.end());
  return normalize_by_sum(values);
}

std::vector<double> normalized_pagerank_distribution(const CsrView& csr,
                                                     ThreadPool& pool) {
  const PageRankResult result = pagerank_csr(
      csr.in_offsets(), csr.in_neighbors(), csr.out_degrees(), pool);
  return normalize_by_sum(result.scores);
}

std::vector<double> normalized_pagerank_distribution(
    const PropertyGraph& graph, ThreadPool& pool) {
  return normalized_pagerank_distribution(CsrView(graph, CsrDirection::kIn),
                                          pool);
}

double veracity_score(const std::vector<double>& seed_normalized,
                      const std::vector<double>& synthetic_normalized,
                      std::size_t quantile_points) {
  std::vector<double> seed_sorted = seed_normalized;
  std::vector<double> synth_sorted = synthetic_normalized;
  std::sort(seed_sorted.begin(), seed_sorted.end());
  std::sort(synth_sorted.begin(), synth_sorted.end());
  // Map the seed to the synthetic scale: under sum-normalization, a perfect
  // shape clone with V' vertices has values exactly (V/V') times the
  // seed's, so this factor isolates shape error from the pure size shift.
  const double scale = static_cast<double>(seed_sorted.size()) /
                       static_cast<double>(synth_sorted.size());
  // The grid stops short of q = 1: the extreme quantile is a single-vertex
  // statistic (the top hub's share), not a property of the distribution
  // shape — the paper's log-binned distribution plots de-emphasize it the
  // same way.
  double sum = 0.0;
  for (std::size_t i = 0; i < quantile_points; ++i) {
    const double q =
        static_cast<double>(i) / static_cast<double>(quantile_points);
    const double diff =
        sorted_quantile(seed_sorted, q) * scale - sorted_quantile(synth_sorted, q);
    sum += diff * diff;
  }
  return sum / static_cast<double>(quantile_points);
}

VeracityReport evaluate_veracity(const PropertyGraph& seed,
                                 const CsrView& synthetic, ThreadPool& pool) {
  const CsrView seed_csr(seed, CsrDirection::kIn);
  VeracityReport report;
  report.degree_score =
      veracity_score(normalized_degree_distribution(seed_csr, &pool),
                     normalized_degree_distribution(synthetic, &pool));
  report.pagerank_score =
      veracity_score(normalized_pagerank_distribution(seed_csr, pool),
                     normalized_pagerank_distribution(synthetic, pool));
  return report;
}

VeracityReport evaluate_veracity(const PropertyGraph& seed,
                                 const PropertyGraph& synthetic,
                                 ThreadPool& pool) {
  return evaluate_veracity(
      seed, CsrView(synthetic, CsrDirection::kIn), pool);
}

namespace {

// PageRank values rescaled so the graph's minimum score is 1. Sparse graphs
// put most vertices in an in-degree-0 atom whose sum-normalized score is the
// teleport baseline (1-d)/N plus a dangling-mass term; two same-shape graphs
// with slightly different dangling mass put that atom at slightly different
// absolute values, and the KS statistic then reads the whole atom (often
// > 80% of the mass) as disagreement. Dividing by the minimum pins the
// baseline at exactly 1 in both graphs, so the statistic measures the shape
// of the distribution above the baseline instead of a scalar offset.
std::vector<double> rescale_to_baseline(std::vector<double> values) {
  const auto lowest = std::min_element(values.begin(), values.end());
  if (lowest == values.end() || *lowest <= 0.0) return values;
  const double baseline = *lowest;
  for (double& value : values) value /= baseline;
  return values;
}

}  // namespace

StructuralKs evaluate_structural_ks(const PropertyGraph& a, const CsrView& b,
                                    ThreadPool& pool) {
  const CsrView a_csr(a, CsrDirection::kIn);
  StructuralKs ks;
  ks.degree_ks = ks_distance(normalized_degree_distribution(a_csr, &pool),
                             normalized_degree_distribution(b, &pool));
  ks.pagerank_ks = ks_distance(
      rescale_to_baseline(normalized_pagerank_distribution(a_csr, pool)),
      rescale_to_baseline(normalized_pagerank_distribution(b, pool)));
  return ks;
}

std::vector<DegreeSeriesPoint> degree_distribution_series(
    const PropertyGraph& graph) {
  const auto degrees = total_degrees(graph);
  double degree_sum = 0.0;
  for (const auto d : degrees) degree_sum += static_cast<double>(d);
  Log2Histogram hist;
  for (const auto d : degrees) hist.add(d);

  std::vector<DegreeSeriesPoint> series;
  if (degree_sum <= 0.0 || hist.total() <= 0.0) return series;
  for (std::size_t bin = 0; bin < hist.bins(); ++bin) {
    if (hist.count(bin) == 0.0) continue;
    series.push_back(DegreeSeriesPoint{
        .normalized_degree = Log2Histogram::bin_center(bin) / degree_sum,
        .vertex_fraction = hist.count(bin) / hist.total(),
    });
  }
  return series;
}

}  // namespace csb
