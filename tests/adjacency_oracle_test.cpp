// Table-driven adjacency oracle: named small graphs mapped to answers that
// were derived by hand (degrees, CSR arrays in both directions, component
// counts, path queries) or pinned once on the reference implementation
// (PageRank iteration counts and exact score bits, which depend on each
// vertex's in-neighbors staying in edge order). Every case runs in RAM and,
// for degrees and PageRank, over a ShardStore's csr.bin at pools {1, 2, 8},
// so any adjacency builder must reproduce the same bytes.
#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/csr.hpp"
#include "graph/pagerank.hpp"
#include "store/graph_store.hpp"
#include "store/shard_store.hpp"
#include "util/thread_pool.hpp"
#include "workload/query_engine.hpp"

namespace csb {
namespace {

namespace fs = std::filesystem;

using Words = std::vector<std::uint64_t>;

struct PathQuery {
  VertexId src;
  VertexId dst;
  std::optional<std::vector<VertexId>> path;
};

struct HopQuery {
  VertexId start;
  std::uint32_t hops;
  std::vector<VertexId> reached;
};

struct OracleCase {
  std::string name;
  std::uint64_t vertices;
  std::vector<std::pair<VertexId, VertexId>> edges;  ///< in edge order
  Words out_degree;
  Words in_degree;
  Words total_degree;
  Words out_offsets;
  Words out_neighbors;
  Words in_offsets;
  Words in_neighbors;
  std::uint32_t pagerank_iterations;
  Words pagerank_bits;  ///< std::bit_cast<std::uint64_t>(score) per vertex
  std::uint64_t wcc;
  std::uint64_t scc;
  std::vector<PathQuery> paths;
  std::vector<HopQuery> hops;
};

void PrintTo(const OracleCase& c, std::ostream* os) { *os << c.name; }

const std::vector<OracleCase>& oracle_cases() {
  static const std::vector<OracleCase> cases = {
      // No vertices at all: every array is empty except offsets = {0}.
      {.name = "empty",
       .vertices = 0,
       .edges = {},
       .out_degree = {},
       .in_degree = {},
       .total_degree = {},
       .out_offsets = {0},
       .out_neighbors = {},
       .in_offsets = {0},
       .in_neighbors = {},
       .pagerank_iterations = 0,
       .pagerank_bits = {},
       .wcc = 0,
       .scc = 0,
       .paths = {},
       .hops = {}},
      // The last vertex owns the only non-empty out-list beyond vertex 0:
      // a builder that drops offsets[n] or the final run reads it as empty.
      // BFS from 0 reaches 3 at one hop and {1, 2} at two.
      {.name = "last_vert_non_empty",
       .vertices = 4,
       .edges = {{0, 3}, {3, 1}, {3, 2}},
       .out_degree = {1, 0, 0, 2},
       .in_degree = {0, 1, 1, 1},
       .total_degree = {1, 1, 1, 3},
       .out_offsets = {0, 1, 1, 1, 3},
       .out_neighbors = {3, 1, 2},
       .in_offsets = {0, 0, 1, 2, 3},
       .in_neighbors = {3, 3, 0},
       .pagerank_iterations = 25,
       .pagerank_bits = {0x3FC3EE1024A3DF22, 0x3FD1CCC7B2A2AC28,
                         0x3FD1CCC7B2A2AC28, 0x3FD26F688868B81C},
       .wcc = 1,
       .scc = 4,
       .paths = {{0, 2, std::vector<VertexId>{0, 3, 2}},
                 {1, 3, std::nullopt},
                 {3, 3, std::vector<VertexId>{3}}},
       .hops = {{0, 1, {3}}, {0, 2, {1, 2, 3}}, {1, 5, {}}}},
      // A 3-cycle followed by three isolated vertices: the trailing
      // offsets repeat m and the trailing degrees are zero.
      {.name = "isolated_tail",
       .vertices = 6,
       .edges = {{0, 1}, {1, 2}, {2, 0}},
       .out_degree = {1, 1, 1, 0, 0, 0},
       .in_degree = {1, 1, 1, 0, 0, 0},
       .total_degree = {2, 2, 2, 0, 0, 0},
       .out_offsets = {0, 1, 2, 3, 3, 3, 3},
       .out_neighbors = {1, 2, 0},
       .in_offsets = {0, 1, 2, 3, 3, 3, 3},
       .in_neighbors = {2, 0, 1},
       .pagerank_iterations = 25,
       .pagerank_bits = {0x3FD28CFC4A229631, 0x3FD28CFC4A229631,
                         0x3FD28CFC4A229631, 0x3FA642C85995F91C,
                         0x3FA642C85995F91C, 0x3FA642C85995F91C},
       .wcc = 4,
       .scc = 4,
       .paths = {{0, 2, std::vector<VertexId>{0, 1, 2}},
                 {0, 4, std::nullopt},
                 {2, 1, std::vector<VertexId>{2, 0, 1}}},
       .hops = {{0, 1, {1}}, {0, 2, {1, 2}}, {5, 3, {}}}},
      // Self-loops count once as out- and once as in-degree and stay in
      // their vertex's lists; they never merge strongly connected
      // components.
      {.name = "self_loops",
       .vertices = 3,
       .edges = {{0, 0}, {1, 2}, {2, 2}, {0, 1}},
       .out_degree = {2, 1, 1},
       .in_degree = {1, 1, 2},
       .total_degree = {3, 2, 3},
       .out_offsets = {0, 2, 3, 4},
       .out_neighbors = {0, 1, 2, 2},
       .in_offsets = {0, 1, 2, 4},
       .in_neighbors = {0, 0, 1, 2},
       .pagerank_iterations = 25,
       .pagerank_bits = {0x3FB642C85995F91C, 0x3FB642C85995F91C,
                         0x3FEA6F4DE99A81BA},
       .wcc = 1,
       .scc = 3,
       .paths = {{0, 2, std::vector<VertexId>{0, 1, 2}},
                 {2, 0, std::nullopt}},
       .hops = {{0, 1, {1}}, {0, 2, {1, 2}}, {2, 4, {}}}},
      // Parallel edges keep one list entry each, and vertex 1's in-list
      // {2, 0, 0, 2} is in edge order, not sorted: the builder is stable.
      {.name = "multi_edges",
       .vertices = 3,
       .edges = {{2, 1}, {0, 1}, {1, 0}, {0, 1}, {2, 1}},
       .out_degree = {2, 1, 2},
       .in_degree = {1, 4, 0},
       .total_degree = {3, 5, 2},
       .out_offsets = {0, 2, 3, 5},
       .out_neighbors = {1, 1, 0, 1, 1},
       .in_offsets = {0, 1, 5, 5},
       .in_neighbors = {1, 2, 0, 0, 2},
       .pagerank_iterations = 30,
       .pagerank_bits = {0x3FDDBD5A5C8F4FAA, 0x3FDF0F72703D7D1F,
                         0x3FA999999999999A},
       .wcc = 1,
       .scc = 2,
       .paths = {{2, 0, std::vector<VertexId>{2, 1, 0}},
                 {0, 2, std::nullopt}},
       .hops = {{2, 1, {1}}, {2, 2, {0, 1}}, {0, 3, {1}}}},
  };
  return cases;
}

PropertyGraph build(const OracleCase& c) {
  std::vector<VertexId> src;
  std::vector<VertexId> dst;
  for (const auto& [s, d] : c.edges) {
    src.push_back(s);
    dst.push_back(d);
  }
  return PropertyGraph::from_columns(c.vertices, std::move(src),
                                     std::move(dst));
}

template <typename Span>
Words words(const Span& span) {
  return Words(span.begin(), span.end());
}

Words score_bits(const std::vector<double>& scores) {
  Words bits;
  for (const double s : scores) bits.push_back(std::bit_cast<std::uint64_t>(s));
  return bits;
}

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_(fs::temp_directory_path() /
              ("csb_oracle_" + tag + "_" + std::to_string(::getpid()))) {
    fs::remove_all(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

class AdjacencyOracleTest : public ::testing::TestWithParam<OracleCase> {};

TEST_P(AdjacencyOracleTest, DegreesInRam) {
  const OracleCase& c = GetParam();
  const PropertyGraph g = build(c);
  EXPECT_EQ(out_degrees(g), c.out_degree);
  EXPECT_EQ(in_degrees(g), c.in_degree);
  EXPECT_EQ(total_degrees(g), c.total_degree);
  const CsrView out_csr(g, CsrDirection::kOut);
  const CsrView in_csr(g, CsrDirection::kIn);
  for (VertexId v = 0; v < c.vertices; ++v) {
    EXPECT_EQ(out_csr.degree(v), c.out_degree[v]) << v;
    EXPECT_EQ(in_csr.degree(v), c.in_degree[v]) << v;
  }
}

TEST_P(AdjacencyOracleTest, CsrBothDirectionsInRam) {
  const OracleCase& c = GetParam();
  const PropertyGraph g = build(c);
  const CsrView out_csr(g, CsrDirection::kOut);
  const CsrView in_csr(g, CsrDirection::kIn);
  EXPECT_EQ(out_csr.num_vertices(), c.vertices);
  EXPECT_EQ(out_csr.num_edges(), c.edges.size());
  EXPECT_EQ(in_csr.num_vertices(), c.vertices);
  EXPECT_EQ(in_csr.num_edges(), c.edges.size());
  EXPECT_EQ(words(out_csr.offsets()), c.out_offsets);
  EXPECT_EQ(words(out_csr.all_neighbors()), c.out_neighbors);
  EXPECT_EQ(words(in_csr.offsets()), c.in_offsets);
  EXPECT_EQ(words(in_csr.all_neighbors()), c.in_neighbors);
  for (VertexId v = 0; v < c.vertices; ++v) {
    EXPECT_EQ(words(out_csr.neighbors(v)),
              Words(c.out_neighbors.begin() + c.out_offsets[v],
                    c.out_neighbors.begin() + c.out_offsets[v + 1]))
        << v;
    EXPECT_EQ(words(in_csr.neighbors(v)),
              Words(c.in_neighbors.begin() + c.in_offsets[v],
                    c.in_neighbors.begin() + c.in_offsets[v + 1]))
        << v;
  }
}

TEST_P(AdjacencyOracleTest, PageRankInRam) {
  const OracleCase& c = GetParam();
  const PropertyGraph g = build(c);
  for (const std::size_t threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    const PageRankResult pr = pagerank(g, pool);
    EXPECT_EQ(pr.iterations, c.pagerank_iterations) << threads;
    EXPECT_EQ(score_bits(pr.scores), c.pagerank_bits) << threads;
  }
}

TEST_P(AdjacencyOracleTest, ComponentsInRam) {
  const OracleCase& c = GetParam();
  const PropertyGraph g = build(c);
  EXPECT_EQ(count_components(g), c.wcc);
  const auto wcc = weakly_connected_components(g);
  EXPECT_EQ(std::set<VertexId>(wcc.begin(), wcc.end()).size(), c.wcc);
  const auto scc = strongly_connected_components(g);
  EXPECT_EQ(std::set<VertexId>(scc.begin(), scc.end()).size(), c.scc);
}

TEST_P(AdjacencyOracleTest, PathQueriesInRam) {
  const OracleCase& c = GetParam();
  const PropertyGraph g = build(c);
  const GraphQueryEngine engine(g);
  for (const PathQuery& q : c.paths) {
    EXPECT_EQ(engine.shortest_path(q.src, q.dst), q.path)
        << q.src << "->" << q.dst;
  }
  for (const HopQuery& q : c.hops) {
    EXPECT_EQ(engine.k_hop_neighborhood(q.start, q.hops), q.reached)
        << q.start << " within " << q.hops;
  }
}

TEST_P(AdjacencyOracleTest, DegreesAndPageRankOverShardStore) {
  const OracleCase& c = GetParam();
  const PropertyGraph g = build(c);
  for (const std::size_t threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    ScratchDir dir(c.name + "_p" + std::to_string(threads));
    ShardStore store(ShardStoreOptions{
        .directory = dir.str(), .shard_count = 2, .pool = &pool});
    replay_graph_into(g, store, 0);
    const ShardStoreReader reader(dir.str());
    ASSERT_TRUE(reader.has_csr());
    const auto& csr = reader.csr();
    EXPECT_EQ(csr.num_vertices(), c.vertices);
    EXPECT_EQ(csr.num_edges(), c.edges.size());
    EXPECT_EQ(words(csr.out_degrees()), c.out_degree) << threads;
    EXPECT_EQ(words(csr.in_offsets()), c.in_offsets) << threads;
    EXPECT_EQ(words(csr.in_neighbors()), c.in_neighbors) << threads;
    for (VertexId v = 0; v < c.vertices; ++v) {
      EXPECT_EQ(csr.total_degree(v), c.total_degree[v]) << v;
    }
    const PageRankResult pr = pagerank_csr(
        csr.in_offsets(), csr.in_neighbors(), csr.out_degrees(), pool);
    EXPECT_EQ(pr.iterations, c.pagerank_iterations) << threads;
    EXPECT_EQ(score_bits(pr.scores), c.pagerank_bits) << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, AdjacencyOracleTest, ::testing::ValuesIn(oracle_cases()),
    [](const ::testing::TestParamInfo<OracleCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace csb
