#include "graph/pagerank.hpp"

#include <cmath>

#include "graph/csr.hpp"
#include "util/parallel.hpp"

namespace csb {

namespace {

/// Chunk-order partial-sum reduction: each fixed chunk writes its partial
/// into its own slot and the slots are summed in chunk order, so the result
/// is bit-identical at any pool size. An atomic<double> fetch_add here
/// would commit the partials in scheduling order, and float addition does
/// not commute in rounding — PageRank scores (and the veracity scores
/// built on them) would drift with thread count.
template <typename Body>
double reduce_fixed_chunks(ThreadPool& pool, std::size_t n, std::size_t grain,
                           const Body& body) {
  const auto chunks = make_fixed_chunks(0, n, grain);
  std::vector<double> partials(chunks.size(), 0.0);
  parallel_for_fixed_chunks(&pool, 0, n, grain,
                            [&](const ChunkRange& c) {
                              partials[c.chunk_index] = body(c);
                            });
  double total = 0.0;
  for (const double partial : partials) total += partial;
  return total;
}

}  // namespace

PageRankResult pagerank(const PropertyGraph& graph, ThreadPool& pool,
                        const PageRankOptions& options) {
  const CsrView in_csr(graph, CsrDirection::kIn);
  return pagerank_csr(in_csr.in_offsets(), in_csr.in_neighbors(),
                      in_csr.out_degrees(), pool, options);
}

PageRankResult pagerank_csr(std::span<const std::uint64_t> in_offsets,
                            std::span<const VertexId> in_neighbors,
                            std::span<const std::uint64_t> out_deg,
                            ThreadPool& pool, const PageRankOptions& options) {
  const std::uint64_t n = out_deg.size();
  CSB_CHECK_MSG(in_offsets.size() == n + 1 || (n == 0 && in_offsets.empty()),
                "in_offsets must have |V|+1 entries");
  PageRankResult result;
  if (n == 0) return result;

  const double inv_n = 1.0 / static_cast<double>(n);
  std::vector<double> rank(n, inv_n);
  std::vector<double> next(n, 0.0);
  // contribution[v] = rank[v] / out_degree[v], precomputed per iteration so
  // the pull loop is a pure gather.
  std::vector<double> contribution(n, 0.0);

  constexpr std::size_t kGrain = 4096;
  for (std::uint32_t iter = 0; iter < options.max_iterations; ++iter) {
    // Dangling vertices donate their mass to everyone.
    const double dangling =
        reduce_fixed_chunks(pool, n, kGrain, [&](const ChunkRange& c) {
          double local_dangling = 0.0;
          for (std::size_t v = c.begin; v < c.end; ++v) {
            if (out_deg[v] == 0) {
              local_dangling += rank[v];
              contribution[v] = 0.0;
            } else {
              contribution[v] = rank[v] / static_cast<double>(out_deg[v]);
            }
          }
          return local_dangling;
        });

    const double base = (1.0 - options.damping) * inv_n +
                        options.damping * dangling * inv_n;

    const double delta =
        reduce_fixed_chunks(pool, n, kGrain, [&](const ChunkRange& c) {
          double local_delta = 0.0;
          for (std::size_t v = c.begin; v < c.end; ++v) {
            double sum = 0.0;
            for (std::uint64_t i = in_offsets[v]; i < in_offsets[v + 1]; ++i) {
              sum += contribution[in_neighbors[i]];
            }
            const double updated = base + options.damping * sum;
            local_delta += std::abs(updated - rank[v]);
            next[v] = updated;
          }
          return local_delta;
        });

    rank.swap(next);
    result.iterations = iter + 1;
    result.final_delta = delta;
    if (result.final_delta < options.tolerance) break;
  }

  result.scores = std::move(rank);
  return result;
}

PageRankResult pagerank_weighted(const PropertyGraph& graph, ThreadPool& pool,
                                 std::span<const double> edge_weights,
                                 const PageRankOptions& options) {
  const std::uint64_t n = graph.num_vertices();
  const std::uint64_t m = graph.num_edges();
  CSB_CHECK_MSG(edge_weights.size() == m,
                "need one weight per edge, aligned with edge order");
  PageRankResult result;
  if (n == 0) return result;

  // Weighted in-adjacency in CSR form: for each vertex, the (source,
  // weight-share) pairs of its incoming edges, where weight-share is the
  // edge weight normalized by the source's total outgoing weight.
  std::vector<std::uint64_t> offsets(n + 1, 0);
  const auto src = graph.sources();
  const auto dst = graph.destinations();
  std::vector<double> out_weight(n, 0.0);
  for (std::size_t e = 0; e < m; ++e) {
    CSB_CHECK_MSG(edge_weights[e] >= 0.0, "edge weights must be nonnegative");
    ++offsets[dst[e] + 1];
    out_weight[src[e]] += edge_weights[e];
  }
  for (std::uint64_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  std::vector<VertexId> in_src(m);
  std::vector<double> in_share(m);
  {
    std::vector<std::uint64_t> cursor(offsets.begin(), offsets.end() - 1);
    for (std::size_t e = 0; e < m; ++e) {
      const std::uint64_t at = cursor[dst[e]]++;
      in_src[at] = src[e];
      in_share[at] =
          out_weight[src[e]] > 0.0 ? edge_weights[e] / out_weight[src[e]] : 0.0;
    }
  }

  const double inv_n = 1.0 / static_cast<double>(n);
  std::vector<double> rank(n, inv_n);
  std::vector<double> next(n, 0.0);
  constexpr std::size_t kGrain = 4096;

  for (std::uint32_t iter = 0; iter < options.max_iterations; ++iter) {
    const double dangling =
        reduce_fixed_chunks(pool, n, kGrain, [&](const ChunkRange& c) {
          double local = 0.0;
          for (std::size_t v = c.begin; v < c.end; ++v) {
            if (out_weight[v] == 0.0) local += rank[v];
          }
          return local;
        });
    const double base = (1.0 - options.damping) * inv_n +
                        options.damping * dangling * inv_n;

    const double delta =
        reduce_fixed_chunks(pool, n, kGrain, [&](const ChunkRange& c) {
          double local_delta = 0.0;
          for (std::size_t v = c.begin; v < c.end; ++v) {
            double sum = 0.0;
            for (std::uint64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
              sum += rank[in_src[i]] * in_share[i];
            }
            const double updated = base + options.damping * sum;
            local_delta += std::abs(updated - rank[v]);
            next[v] = updated;
          }
          return local_delta;
        });

    rank.swap(next);
    result.iterations = iter + 1;
    result.final_delta = delta;
    if (result.final_delta < options.tolerance) break;
  }
  result.scores = std::move(rank);
  return result;
}

PageRankResult pagerank_by_traffic(const PropertyGraph& graph,
                                   ThreadPool& pool,
                                   const PageRankOptions& options) {
  CSB_CHECK_MSG(graph.has_properties(),
                "pagerank_by_traffic requires NetFlow properties");
  const auto out_bytes = graph.out_bytes();
  const auto in_bytes = graph.in_bytes();
  std::vector<double> weights(graph.num_edges());
  for (std::size_t e = 0; e < weights.size(); ++e) {
    weights[e] = static_cast<double>(out_bytes[e] + in_bytes[e]) + 1.0;
  }
  return pagerank_weighted(graph, pool, weights, options);
}

}  // namespace csb
