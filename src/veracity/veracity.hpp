// Veracity scoring (paper §V-A).
//
// "We define the veracity score of a synthetic dataset with respect to the
//  seed dataset as the average Euclidean distance of their normalized
//  degree and PageRank distributions. A smaller veracity score indicates
//  higher similarity with the seed dataset."
//
// Normalization divides each per-vertex value by the sum over all vertices
// (so a graph 1000x larger has values ~1000x smaller — the paper's Fig. 5
// down-left shift). The paper attributes the decreasing score trend to
// shape convergence: "when the synthetic graph is relatively small, it does
// not hold enough information to reflect the original data distribution";
// growth improves fidelity. Accordingly the score compares the two
// quantile functions at a common scale: the seed's normalized values are
// mapped to the synthetic graph's scale (x |V_seed| / |V_synth|, the shift
// pure size causes under sum-normalization), and the score is the mean
// squared difference over an even quantile grid. A perfect shape clone of
// any size scores 0; shape errors are weighted by the synthetic scale
// (~1/|V|), which reproduces the paper's magnitudes — tiny, shrinking
// scores for large faithful graphs, and PageRank scores orders of
// magnitude below degree scores.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "graph/property_graph.hpp"
#include "util/thread_pool.hpp"

namespace csb {

// The degree, PageRank, veracity and structural-KS functions each have one
// body, over a kIn CsrView: a shard store's mapped csr.bin or a view built
// from an in-RAM graph. Their PropertyGraph overloads only build the view,
// except the degree one, which reads total_degrees and builds none.

/// Per-vertex total degrees divided by their sum. Chunks fill disjoint
/// slots, so the values are identical at any pool size.
std::vector<double> normalized_degree_distribution(const CsrView& csr,
                                                   ThreadPool* pool = nullptr);
std::vector<double> normalized_degree_distribution(const PropertyGraph& graph);

/// Per-vertex PageRank scores divided by their sum (pagerank_csr over the
/// view's in-adjacency).
std::vector<double> normalized_pagerank_distribution(const CsrView& csr,
                                                     ThreadPool& pool);
std::vector<double> normalized_pagerank_distribution(
    const PropertyGraph& graph, ThreadPool& pool);

/// The veracity score: mean squared difference between the seed's and the
/// synthetic graph's normalized-value quantile functions, with the seed
/// rescaled by |V_seed| / |V_synth| to the synthetic scale (see the file
/// comment). Lower = more faithful; 0 = exact shape clone.
double veracity_score(const std::vector<double>& seed_normalized,
                      const std::vector<double>& synthetic_normalized,
                      std::size_t quantile_points = 101);

/// Both §V-A scores of a synthetic graph against a seed.
struct VeracityReport {
  double degree_score = 0.0;
  double pagerank_score = 0.0;
};

/// Builds one view of the seed and takes both scores from the two views.
VeracityReport evaluate_veracity(const PropertyGraph& seed,
                                 const CsrView& synthetic, ThreadPool& pool);
VeracityReport evaluate_veracity(const PropertyGraph& seed,
                                 const PropertyGraph& synthetic,
                                 ThreadPool& pool);

/// Two-sample Kolmogorov–Smirnov distances between the normalized degree
/// and PageRank distributions of two graphs (stats/distance.hpp ks_distance
/// underneath). This is the matched-scale fidelity metric that validates
/// the fast samplers against their exact counterparts: both graphs are the
/// same order of magnitude, so the per-vertex values are directly
/// comparable and the statistic is in [0, 1]. PageRank values are compared
/// relative to each graph's minimum score (the in-degree-0 teleport
/// baseline): the baseline's absolute position shifts with dangling mass
/// alone, and on sparse graphs — where the baseline atom holds most of the
/// vertices — the raw statistic would read that scalar offset as near-total
/// disagreement even between two runs of the same exact generator.
struct StructuralKs {
  double degree_ks = 0.0;
  double pagerank_ks = 0.0;
};
StructuralKs evaluate_structural_ks(const PropertyGraph& a, const CsrView& b,
                                    ThreadPool& pool);

/// The log-binned normalized degree distribution series plotted in Fig. 5:
/// (normalized degree bin center, fraction of vertices) points.
struct DegreeSeriesPoint {
  double normalized_degree = 0.0;
  double vertex_fraction = 0.0;
};
std::vector<DegreeSeriesPoint> degree_distribution_series(
    const PropertyGraph& graph);

}  // namespace csb
