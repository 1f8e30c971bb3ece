// Golden output digests of every registered generator: the reference-output
// oracle of the determinism contract. Each row fixes a seed graph, a config
// (properties on) and the expected digest; the run is repeated at pool sizes
// {1, 2, 8}, through both the in-RAM entry point (Generator::generate) and a
// MemoryStore capture of the sink entry point (Generator::generate_into).
// A refactor of any generator's pipeline must leave every digest unchanged.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "gen/generator.hpp"
#include "seed/seed.hpp"
#include "store/graph_store.hpp"
#include "trace/traffic_model.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"

namespace csb {
namespace {

struct GoldenRow {
  std::string label;      ///< test-name suffix
  std::string generator;  ///< registry name
  std::map<std::string, std::string> extra;
  std::uint64_t digest = 0;
};

const SeedBundle& golden_seed() {
  static const SeedBundle seed = [] {
    TrafficModelConfig config;
    config.benign_sessions = 300;
    config.client_hosts = 120;
    config.server_hosts = 30;
    return build_seed_from_netflow(
        sessions_to_netflow(TrafficModel(config).generate_benign()));
  }();
  return seed;
}

GenConfig golden_config(const GoldenRow& row) {
  GenConfig config;
  config.desired_edges = 60'000;
  config.seed = 7;
  config.with_properties = true;
  config.extra = row.extra;
  return config;
}

/// Order-sensitive mix64 fold of one column into the running digest.
template <typename T>
std::uint64_t fold(std::uint64_t digest, std::span<const T> column) {
  digest = mix64(digest ^ column.size());
  for (const T value : column) {
    digest = mix64(digest + static_cast<std::uint64_t>(value));
  }
  return digest;
}

/// Digest of the vertex count, the endpoint columns and all nine NetFlow
/// property columns.
std::uint64_t graph_digest(const PropertyGraph& graph) {
  std::uint64_t digest = mix64(graph.num_vertices());
  digest = fold(digest, graph.sources());
  digest = fold(digest, graph.destinations());
  digest = fold(digest, graph.protocols());
  digest = fold(digest, graph.src_ports());
  digest = fold(digest, graph.dst_ports());
  digest = fold(digest, graph.durations_ms());
  digest = fold(digest, graph.out_bytes());
  digest = fold(digest, graph.in_bytes());
  digest = fold(digest, graph.out_pkts());
  digest = fold(digest, graph.in_pkts());
  digest = fold(digest, graph.states());
  return digest;
}

ClusterConfig four_cores() {
  return ClusterConfig{.nodes = 2, .cores_per_node = 2};
}

const std::map<std::string, std::string> kFastFit = {
    {"fit-iters", "2"}, {"fit-swaps", "50"}, {"fit-burnin", "50"}};

std::map<std::string, std::string> with_fit(
    std::map<std::string, std::string> extra) {
  extra.insert(kFastFit.begin(), kFastFit.end());
  return extra;
}

/// One row per registered generator (defaults apart from a short KronFit).
const std::vector<GoldenRow>& generate_rows() {
  static const std::vector<GoldenRow> rows = {
      {"pgpba", "pgpba", {}, 0xf1f3d0bebb9a843cULL},
      {"pgsk", "pgsk", with_fit({}), 0xfde60938487083a2ULL},
      {"pgpba_fast", "pgpba-fast", {}, 0x032c5e40910a235cULL},
      {"pgsk_fast", "pgsk-fast", with_fit({}), 0x9b30663773b7a573ULL},
      {"rmat", "rmat", {}, 0xae7cab527aa645d0ULL},
      {"classic_ba", "classic-ba", {}, 0xa61a90d89e50b245ULL},
      {"erdos_renyi", "erdos-renyi", {}, 0xf51dc559b97b9a45ULL},
      {"chung_lu", "chung-lu", {}, 0x06d504c7436a2b8bULL},
      {"sbm", "sbm", {}, 0x5130ec0dcb949114ULL},
  };
  return rows;
}

/// The rows above plus pgsk-fast's external-sort dedup.
const std::vector<GoldenRow>& store_rows() {
  static const std::vector<GoldenRow> rows = [] {
    std::vector<GoldenRow> all = generate_rows();
    all.push_back({"pgsk_fast_dedup", "pgsk-fast",
                   with_fit({{"dedup", "true"}}),
                   0xede60779a5cc43ebULL});
    return all;
  }();
  return rows;
}

void PrintTo(const GoldenRow& row, std::ostream* os) { *os << row.label; }

std::string row_name(const testing::TestParamInfo<GoldenRow>& info) {
  return info.param.label;
}

class GoldenGenerateTest : public testing::TestWithParam<GoldenRow> {};
class GoldenStoreTest : public testing::TestWithParam<GoldenRow> {};

TEST_P(GoldenGenerateTest, DigestMatchesAtEveryPoolSize) {
  const GoldenRow& row = GetParam();
  const Generator& generator = require_generator(row.generator);
  const SeedBundle& seed = golden_seed();
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    ClusterSim cluster(four_cores(), pool);
    const GenResult result =
        generator.generate(seed.graph, seed.profile, cluster,
                           golden_config(row));
    EXPECT_TRUE(result.graph.has_properties());
    EXPECT_EQ(graph_digest(result.graph), row.digest)
        << row.label << " at pool " << threads << ": 0x" << std::hex
        << graph_digest(result.graph);
  }
}

TEST_P(GoldenStoreTest, DigestMatchesAtEveryPoolSize) {
  const GoldenRow& row = GetParam();
  const Generator& generator = require_generator(row.generator);
  const SeedBundle& seed = golden_seed();
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    ClusterSim cluster(four_cores(), pool);
    MemoryStore store;
    const StoreGenResult result = generator.generate_into(
        seed.graph, seed.profile, cluster, golden_config(row), store);
    EXPECT_EQ(result.edges, store.graph().num_edges());
    EXPECT_EQ(graph_digest(store.graph()), row.digest)
        << row.label << " at pool " << threads << ": 0x" << std::hex
        << graph_digest(store.graph());
  }
}

INSTANTIATE_TEST_SUITE_P(Generators, GoldenGenerateTest,
                         testing::ValuesIn(generate_rows()), row_name);
INSTANTIATE_TEST_SUITE_P(Generators, GoldenStoreTest,
                         testing::ValuesIn(store_rows()), row_name);

}  // namespace
}  // namespace csb
