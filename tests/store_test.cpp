// Unit tests for src/store: the GraphStore sink contract (every generator
// streams its own pipeline; MemoryStore and ShardStore land the same
// graph), the ShardStore on-disk round trip and its determinism
// across shard counts and pool sizes, the mmap CSR index, corrupt-store
// error paths, ExternalDistinct, the GraphFormat registry, and the typed
// generator option descriptors.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "gen/fast_samplers.hpp"
#include "gen/generator.hpp"
#include "gen/pgpba.hpp"
#include "gen/pgsk.hpp"
#include "gen/sink_stages.hpp"
#include "graph/algorithms.hpp"
#include "graph/csr.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "seed/seed.hpp"
#include "store/external_sort.hpp"
#include "store/graph_format.hpp"
#include "store/graph_store.hpp"
#include "store/shard_store.hpp"
#include "trace/traffic_model.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "veracity/veracity.hpp"

namespace csb {
namespace {

namespace fs = std::filesystem;

SeedBundle small_seed(std::uint64_t sessions = 600) {
  TrafficModelConfig config;
  config.benign_sessions = sessions;
  config.client_hosts = 120;
  config.server_hosts = 30;
  return build_seed_from_netflow(
      sessions_to_netflow(TrafficModel(config).generate_benign()));
}

ClusterConfig four_cores() {
  return ClusterConfig{.nodes = 2, .cores_per_node = 2};
}

/// Fresh scratch directory under the system temp root, removed on scope
/// exit so repeated test runs never see stale stores.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_(fs::temp_directory_path() /
              ("csb_store_test_" + tag + "_" +
               std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  [[nodiscard]] std::string str() const { return path_.string(); }
  [[nodiscard]] fs::path path() const { return path_; }

 private:
  fs::path path_;
};

std::string read_file_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::string(std::istreambuf_iterator<char>(in), {});
}

PgskFastOptions pgsk_options(const SeedBundle& seed) {
  PgskFastOptions options;
  options.desired_edges = 6 * seed.graph.num_edges();
  options.seed = 11;
  options.fit.gradient_iterations = 2;
  options.fit.swaps_per_iteration = 50;
  options.fit.burn_in_swaps = 50;
  return options;
}

PgpbaFastOptions pgpba_options(const SeedBundle& seed) {
  PgpbaFastOptions options;
  options.desired_edges = 6 * seed.graph.num_edges();
  options.seed = 11;
  return options;
}

// --------------------------------------------- exact generators, streamed

PgskOptions pgsk_exact_options(const SeedBundle& seed) {
  PgskOptions options;
  options.desired_edges = 4 * seed.graph.num_edges();
  options.seed = 11;
  options.fit.gradient_iterations = 2;
  options.fit.swaps_per_iteration = 50;
  options.fit.burn_in_swaps = 50;
  return options;
}

PgpbaOptions pgpba_exact_options(const SeedBundle& seed) {
  PgpbaOptions options;
  options.desired_edges = 4 * seed.graph.num_edges();
  options.seed = 11;
  return options;
}

// Every registered generator streams its own pipeline into the store: no
// run books a store:replay span (generate, then replay the in-RAM result)
// or a materialize span (assemble in-RAM columns outside the store).
TEST(MemoryStoreTest, ExactGeneratorsEmitNoReplaySpan) {
  const SeedBundle seed = small_seed(300);
  for (const Generator* generator : all_generators()) {
    GenConfig config;
    config.desired_edges = 3 * seed.graph.num_edges();
    config.partitions = 4;
    config.seed = 7;
    config.extra = {{"fit-iters", "2"}, {"fit-swaps", "50"},
                    {"fit-burnin", "50"}};
    if (!generator->name().starts_with("pgsk")) config.extra.clear();
    ClusterSim cluster(four_cores());
    TraceRecorder recorder;
    cluster.set_trace(&recorder);
    MemoryStore store;
    const StoreGenResult streamed =
        generator->generate_into(seed.graph, seed.profile, cluster, config,
                                 store);
    cluster.set_trace(nullptr);
    const std::string name(generator->name());
    EXPECT_GT(streamed.edges, 0u) << name;

    bool saw_emit = false;
    for (const SpanRecord& span : recorder.spans()) {
      EXPECT_NE(span.name, "store:replay") << name;
      EXPECT_FALSE(span.name.starts_with("materialize"))
          << name << ": " << span.name;
      if (span.name == "store:emit") saw_emit = true;
    }
    EXPECT_TRUE(saw_emit) << name;
  }
}

// Both generator counters are booked by the shared property stage and the
// shared store seal, so they count every edge on every path, including a
// ShardStore run of the exact PGSK pipeline and of a §II baseline.
TEST(ShardStoreTest, GeneratorCountersBookEveryEdge) {
  const SeedBundle seed = small_seed(300);
  Counter& materialized =
      MetricsRegistry::instance().counter("gen.edges_materialized");
  Counter& sampled =
      MetricsRegistry::instance().counter("gen.properties_sampled");
  for (const char* name : {"pgsk", "chung-lu"}) {
    GenConfig config;
    config.desired_edges = 3 * seed.graph.num_edges();
    config.seed = 5;
    if (std::string_view(name) == "pgsk") {
      config.extra = {{"fit-iters", "2"}, {"fit-swaps", "50"},
                      {"fit-burnin", "50"}};
    }
    ScratchDir dir(std::string("counters_") + name);
    ShardStoreOptions store_options;
    store_options.directory = dir.str();
    store_options.shard_count = 4;
    ShardStore store(store_options);
    ClusterSim cluster(four_cores());
    const std::uint64_t materialized_before = materialized.value();
    const std::uint64_t sampled_before = sampled.value();
    const StoreGenResult result = require_generator(name).generate_into(
        seed.graph, seed.profile, cluster, config, store);
    EXPECT_GT(result.edges, 0u) << name;
    EXPECT_EQ(materialized.value() - materialized_before, result.edges)
        << name;
    EXPECT_EQ(sampled.value() - sampled_before, result.edges) << name;
  }
}

TEST(ShardStoreTest, ExactPgskRoundTripAcrossShardAndPoolCounts) {
  const SeedBundle seed = small_seed(300);
  const auto options = pgsk_exact_options(seed);

  ClusterSim baseline_cluster(four_cores());
  MemoryStore baseline;
  (void)pgsk_generate_into(seed.graph, seed.profile, baseline_cluster,
                           options, baseline);

  for (const std::uint32_t shard_count : {1u, 4u, 16u}) {
    for (const std::size_t pool_size : {1u, 2u, 8u}) {
      ScratchDir dir("exact_pgsk_s" + std::to_string(shard_count) + "_p" +
                     std::to_string(pool_size));
      ThreadPool pool(pool_size);
      ClusterSim cluster(four_cores(), pool);
      ShardStoreOptions store_options;
      store_options.directory = dir.str();
      store_options.shard_count = shard_count;
      store_options.pool = &pool;
      ShardStore store(store_options);
      (void)pgsk_generate_into(seed.graph, seed.profile, cluster, options,
                               store);

      const ShardStoreReader reader(dir.str());
      EXPECT_EQ(reader.to_property_graph(), baseline.graph())
          << shard_count << " shards, pool " << pool_size;
    }
  }
}

TEST(ShardStoreTest, ExactPgpbaRoundTripAcrossShardAndPoolCounts) {
  const SeedBundle seed = small_seed(300);
  const auto options = pgpba_exact_options(seed);

  ClusterSim baseline_cluster(four_cores());
  MemoryStore baseline;
  (void)pgpba_generate_into(seed.graph, seed.profile, baseline_cluster,
                            options, baseline);

  for (const std::uint32_t shard_count : {1u, 4u, 16u}) {
    for (const std::size_t pool_size : {1u, 2u, 8u}) {
      ScratchDir dir("exact_pgpba_s" + std::to_string(shard_count) + "_p" +
                     std::to_string(pool_size));
      ThreadPool pool(pool_size);
      ClusterSim cluster(four_cores(), pool);
      ShardStoreOptions store_options;
      store_options.directory = dir.str();
      store_options.shard_count = shard_count;
      store_options.pool = &pool;
      ShardStore store(store_options);
      (void)pgpba_generate_into(seed.graph, seed.profile, cluster, options,
                                store);

      const ShardStoreReader reader(dir.str());
      EXPECT_EQ(reader.to_property_graph(), baseline.graph())
          << shard_count << " shards, pool " << pool_size;
    }
  }
}

// Forcing the expand distinct to spill (the minimum 512 KB budget — 64K
// keys — against a couple hundred thousand placements) must not change a
// single output byte: the dedup stream is sorted-unique regardless of how
// many runs it passed through.
TEST(ShardStoreTest, ExactPgskSpillEngagedOutputUnchanged) {
  const SeedBundle seed = small_seed(300);
  PgskOptions options = pgsk_exact_options(seed);
  options.desired_edges = 400'000;

  ClusterSim in_ram_cluster(four_cores());
  MemoryStore in_ram;
  (void)pgsk_generate_into(seed.graph, seed.profile, in_ram_cluster, options,
                           in_ram);
  ASSERT_GT(in_ram.graph().num_edges(), 100'000u);

  ScratchDir spill("exact_pgsk_spill");
  PgskOptions tiny = options;
  tiny.dedup_budget_bytes = 1ULL << 19;
  tiny.spill_directory = spill.str();
  ThreadPool pool(8);
  ClusterSim spilled_cluster(four_cores(), pool);
  MemoryStore spilled;
  const std::uint64_t runs_before = MetricsRegistry::instance()
                                        .counter("store.distinct_spilled_runs")
                                        .value();
  (void)pgsk_generate_into(seed.graph, seed.profile, spilled_cluster, tiny,
                           spilled);
  EXPECT_GT(MetricsRegistry::instance()
                .counter("store.distinct_spilled_runs")
                .value(),
            runs_before)
      << "budget did not force a spill — the test is vacuous";
  EXPECT_EQ(spilled.graph(), in_ram.graph());
}

// ------------------------------------------------------------ ShardStore

TEST(ShardStoreTest, RoundTripMatchesMemoryAcrossShardAndPoolCounts) {
  const SeedBundle seed = small_seed();
  const auto pg_options = pgsk_options(seed);

  ClusterSim baseline_cluster(four_cores());
  MemoryStore baseline;
  (void)pgsk_fast_generate_into(seed.graph, seed.profile, baseline_cluster,
                                pg_options, baseline);

  for (const std::uint32_t shard_count : {1u, 4u, 16u}) {
    for (const std::size_t pool_size : {1u, 2u, 8u}) {
      ScratchDir dir("roundtrip_s" + std::to_string(shard_count) + "_p" +
                     std::to_string(pool_size));
      ThreadPool pool(pool_size);
      ClusterSim cluster(four_cores(), pool);
      ShardStoreOptions store_options;
      store_options.directory = dir.str();
      store_options.shard_count = shard_count;
      store_options.pool = &pool;
      ShardStore store(store_options);
      (void)pgsk_fast_generate_into(seed.graph, seed.profile, cluster,
                                    pg_options, store);

      const ShardStoreReader reader(dir.str());
      EXPECT_EQ(reader.manifest().shard_count, shard_count);
      EXPECT_EQ(reader.to_property_graph(), baseline.graph())
          << shard_count << " shards, pool " << pool_size;
    }
  }
}

TEST(ShardStoreTest, ShardBytesInvariantToPoolSize) {
  const SeedBundle seed = small_seed();
  const auto pg_options = pgpba_options(seed);

  std::vector<std::string> reference_bytes;
  for (const std::size_t pool_size : {1u, 2u, 8u}) {
    ScratchDir dir("bytes_p" + std::to_string(pool_size));
    ThreadPool pool(pool_size);
    ClusterSim cluster(four_cores(), pool);
    ShardStoreOptions store_options;
    store_options.directory = dir.str();
    store_options.shard_count = 4;
    store_options.pool = &pool;
    ShardStore store(store_options);
    (void)pgpba_fast_generate_into(seed.graph, seed.profile, cluster,
                                   pg_options, store);

    std::vector<std::string> bytes;
    for (const auto& entry : fs::directory_iterator(dir.path())) {
      bytes.push_back(entry.path().filename().string() + ":" +
                      read_file_bytes(entry.path()));
    }
    std::sort(bytes.begin(), bytes.end());
    std::string all;
    for (const auto& b : bytes) all += b;
    reference_bytes.push_back(std::move(all));
  }
  ASSERT_EQ(reference_bytes.size(), 3u);
  EXPECT_EQ(reference_bytes[0], reference_bytes[1]);
  EXPECT_EQ(reference_bytes[0], reference_bytes[2]);
}

TEST(ShardStoreTest, ConcatenatedEdgeStreamInvariantToShardCount) {
  const SeedBundle seed = small_seed(300);
  const auto pg_options = pgpba_options(seed);

  std::vector<std::vector<VertexId>> streams;
  for (const std::uint32_t shard_count : {1u, 4u, 16u}) {
    ScratchDir dir("concat_s" + std::to_string(shard_count));
    ClusterSim cluster(four_cores());
    ShardStoreOptions store_options;
    store_options.directory = dir.str();
    store_options.shard_count = shard_count;
    ShardStore store(store_options);
    (void)pgpba_fast_generate_into(seed.graph, seed.profile, cluster,
                                   pg_options, store);

    const ShardStoreReader reader(dir.str());
    std::vector<VertexId> stream;
    reader.scan_edges([&](std::uint64_t first, std::span<const VertexId> src,
                          std::span<const VertexId> dst) {
      EXPECT_EQ(first, stream.size() / 2);
      for (std::size_t i = 0; i < src.size(); ++i) {
        stream.push_back(src[i]);
        stream.push_back(dst[i]);
      }
    });
    streams.push_back(std::move(stream));
  }
  ASSERT_EQ(streams.size(), 3u);
  EXPECT_EQ(streams[0], streams[1]);
  EXPECT_EQ(streams[0], streams[2]);
}

TEST(ShardStoreTest, CsrAndManifestByteIdenticalAcrossPoolsShardsBudgets) {
  // The tentpole contract: the parallel finish pipeline (counting, range
  // partition, budget-split scatter) must land byte-identical artifacts at
  // any pool size and any budget. csr.bin describes the whole graph, so it
  // must also be identical across shard counts; the manifest embeds the
  // shard layout, so its reference is per shard count.
  const SeedBundle seed = small_seed(300);
  const auto pg_options = pgpba_options(seed);

  std::string csr_reference;
  std::map<std::uint32_t, std::string> manifest_reference;
  for (const std::uint32_t shard_count : {1u, 4u, 16u}) {
    // 1 MiB is the budget floor: the scatter splits it across range tasks
    // and falls back to the per-task minimum, forcing many sub-buckets.
    for (const std::uint64_t budget : {1ULL << 20, 256ULL << 20}) {
      for (const std::size_t pool_size : {1u, 2u, 8u}) {
        const std::string tag = "matrix_s" + std::to_string(shard_count) +
                                "_b" + std::to_string(budget >> 20) + "_p" +
                                std::to_string(pool_size);
        ScratchDir dir(tag);
        ThreadPool pool(pool_size);
        ClusterSim cluster(four_cores(), pool);
        ShardStoreOptions store_options;
        store_options.directory = dir.str();
        store_options.shard_count = shard_count;
        store_options.memory_budget_bytes = budget;
        store_options.pool = &pool;
        ShardStore store(store_options);
        (void)pgpba_fast_generate_into(seed.graph, seed.profile, cluster,
                                       pg_options, store);

        const std::string csr = read_file_bytes(dir.path() / "csr.bin");
        const std::string manifest =
            read_file_bytes(dir.path() / "manifest.json");
        if (csr_reference.empty()) csr_reference = csr;
        EXPECT_EQ(csr, csr_reference) << tag;
        const auto [it, inserted] =
            manifest_reference.try_emplace(shard_count, manifest);
        EXPECT_EQ(manifest, it->second) << tag;
      }
    }
  }
}

TEST(ShardStoreTest, DedupStoreBytesInvariantToPoolSize) {
  // The dedup path routes every edge through ExternalDistinct, whose seal
  // now runs range-partitioned parallel merges on the cluster pool — the
  // stored bytes must not depend on the pool size or the merge partition
  // count at either budget extreme.
  const SeedBundle seed = small_seed(300);
  const auto pg_options = pgsk_options(seed);

  const auto run = [&](std::size_t pool_size, std::uint64_t budget,
                       const std::string& tag) {
    ScratchDir spill("dedup_spill_" + tag);
    ScratchDir dir("dedup_store_" + tag);
    ThreadPool pool(pool_size);
    ClusterSim cluster(four_cores(), pool);
    ShardStoreOptions store_options;
    store_options.directory = dir.str();
    store_options.shard_count = 4;
    store_options.pool = &pool;
    ShardStore store(store_options);
    PgskFastOptions options = pg_options;
    options.dedup = true;
    options.dedup_budget_bytes = budget;
    options.spill_directory = spill.str();
    (void)pgsk_fast_generate_into(seed.graph, seed.profile, cluster, options,
                                  store);

    std::vector<std::string> bytes;
    for (const auto& entry : fs::directory_iterator(dir.path())) {
      bytes.push_back(entry.path().filename().string() + ":" +
                      read_file_bytes(entry.path()));
    }
    std::sort(bytes.begin(), bytes.end());
    std::string all;
    for (const auto& b : bytes) all += b;
    return all;
  };

  for (const std::uint64_t budget : {1ULL << 19, 256ULL << 20}) {
    const std::string b = std::to_string(budget >> 19);
    const std::string reference = run(1, budget, "p1_b" + b);
    EXPECT_EQ(run(2, budget, "p2_b" + b), reference) << budget;
    EXPECT_EQ(run(8, budget, "p8_b" + b), reference) << budget;
  }
}

TEST(ShardStoreTest, CsrIndexMatchesInRamCsrView) {
  const SeedBundle seed = small_seed(300);
  const auto pg_options = pgsk_options(seed);

  ClusterSim c1(four_cores());
  MemoryStore memory;
  (void)pgsk_fast_generate_into(seed.graph, seed.profile, c1, pg_options, memory);

  ScratchDir dir("csr");
  ClusterSim c2(four_cores());
  ShardStoreOptions store_options;
  store_options.directory = dir.str();
  store_options.shard_count = 4;
  ShardStore store(store_options);
  (void)pgsk_fast_generate_into(seed.graph, seed.profile, c2, pg_options, store);

  const ShardStoreReader reader(dir.str());
  ASSERT_TRUE(reader.has_csr());
  const CsrIndexView& csr = reader.csr();
  const PropertyGraph& graph = memory.graph();
  const CsrView in_csr(graph, CsrDirection::kIn);
  const auto out_deg = out_degrees(graph);

  ASSERT_EQ(csr.num_vertices(), graph.num_vertices());
  ASSERT_EQ(csr.num_edges(), graph.num_edges());
  EXPECT_TRUE(std::equal(csr.out_degrees().begin(), csr.out_degrees().end(),
                         out_deg.begin(), out_deg.end()));
  EXPECT_TRUE(std::equal(csr.in_offsets().begin(), csr.in_offsets().end(),
                         in_csr.offsets().begin(), in_csr.offsets().end()));
  EXPECT_TRUE(std::equal(csr.in_neighbors().begin(), csr.in_neighbors().end(),
                         in_csr.all_neighbors().begin(),
                         in_csr.all_neighbors().end()));
}

TEST(ShardStoreTest, StreamedVeracityEqualsInRamVeracity) {
  const SeedBundle seed = small_seed(300);
  const auto pg_options = pgsk_options(seed);

  ClusterSim c1(four_cores());
  MemoryStore memory;
  (void)pgsk_fast_generate_into(seed.graph, seed.profile, c1, pg_options, memory);

  ScratchDir dir("veracity");
  ClusterSim c2(four_cores());
  ShardStoreOptions store_options;
  store_options.directory = dir.str();
  ShardStore store(store_options);
  (void)pgsk_fast_generate_into(seed.graph, seed.profile, c2, pg_options, store);

  const ShardStoreReader reader(dir.str());
  ThreadPool pool(4);
  // The CSR overloads share the exact degree / PageRank implementation with
  // the in-RAM ones, so the scores agree exactly, not approximately.
  const VeracityReport in_ram =
      evaluate_veracity(seed.graph, memory.graph(), pool);
  const VeracityReport streamed =
      evaluate_veracity(seed.graph, reader.csr(), pool);
  EXPECT_EQ(in_ram.degree_score, streamed.degree_score);
  EXPECT_EQ(in_ram.pagerank_score, streamed.pagerank_score);

  const StructuralKs ks =
      evaluate_structural_ks(memory.graph(), reader.csr(), pool);
  EXPECT_EQ(ks.degree_ks, 0.0);
  EXPECT_EQ(ks.pagerank_ks, 0.0);
}

TEST(ShardStoreTest, DedupPathDropsDuplicatesDeterministically) {
  const SeedBundle seed = small_seed(300);
  const auto pg_options = pgsk_options(seed);

  const auto run = [&](std::uint64_t budget_bytes, const std::string& tag) {
    ScratchDir spill("spill_" + tag);
    ClusterSim cluster(four_cores());
    MemoryStore store;
    PgskFastOptions options = pg_options;
    options.dedup = true;
    options.dedup_budget_bytes = budget_bytes;
    options.spill_directory = spill.str();
    (void)pgsk_fast_generate_into(seed.graph, seed.profile, cluster, options,
                                  store);
    return store.take_graph();
  };

  const PropertyGraph roomy = run(256ULL << 20, "roomy");
  const PropertyGraph tight = run(1ULL << 19, "tight");  // the minimum budget
  EXPECT_EQ(roomy, tight);

  // The dedup stream is the ascending sorted-unique placement set, each
  // placement expanded into its re-multiply copies consecutively — so the
  // per-edge key sequence must be non-decreasing in emission order.
  std::vector<std::uint64_t> keys;
  keys.reserve(roomy.num_edges());
  const auto srcs = roomy.sources();
  const auto dsts = roomy.destinations();
  for (EdgeId e = 0; e < roomy.num_edges(); ++e) {
    keys.push_back((static_cast<std::uint64_t>(srcs[e]) << 32) | dsts[e]);
  }
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

// `dedup` takes effect on the in-RAM path as well: generate() returns every
// distinct placement once, expanded into exactly its re-multiply copies,
// and lands the same graph as a ShardStore run.
TEST(ShardStoreTest, DedupAppliesToInRamGenerate) {
  const SeedBundle seed = small_seed(300);
  const Generator& generator = require_generator("pgsk-fast");
  GenConfig config;
  config.desired_edges = 6 * seed.graph.num_edges();
  config.seed = 11;
  config.extra = {{"fit-iters", "2"}, {"fit-swaps", "50"},
                  {"fit-burnin", "50"}};
  ClusterSim plain_cluster(four_cores());
  const GenResult plain =
      generator.generate(seed.graph, seed.profile, plain_cluster, config);

  config.extra["dedup"] = "true";
  ClusterSim cluster(four_cores());
  const GenResult deduped =
      generator.generate(seed.graph, seed.profile, cluster, config);
  const PropertyGraph& graph = deduped.graph;
  ASSERT_GT(graph.num_edges(), 0u);
  EXPECT_LT(graph.num_edges(), plain.graph.num_edges());

  const auto srcs = graph.sources();
  const auto dsts = graph.destinations();
  const std::uint64_t dup_seed = config.seed ^ 0xd0b1e5ULL;
  std::uint64_t previous_key = 0;
  for (EdgeId e = 0; e < graph.num_edges();) {
    const Edge edge{srcs[e], dsts[e]};
    const std::uint64_t key = (edge.src << 32) | edge.dst;
    ASSERT_TRUE(e == 0 || key > previous_key)
        << "placement repeated or out of order at edge " << e;
    EdgeId run_end = e;
    while (run_end < graph.num_edges() && srcs[run_end] == edge.src &&
           dsts[run_end] == edge.dst) {
      ++run_end;
    }
    ASSERT_EQ(run_end - e, re_multiply_copies(seed.profile, dup_seed, edge))
        << "edge " << e;
    previous_key = key;
    e = run_end;
  }

  ScratchDir dir("dedup_in_ram");
  ShardStoreOptions store_options;
  store_options.directory = dir.str();
  store_options.shard_count = 4;
  ShardStore store(store_options);
  ClusterSim shard_cluster(four_cores());
  (void)generator.generate_into(seed.graph, seed.profile, shard_cluster,
                                config, store);
  EXPECT_EQ(ShardStoreReader(dir.str()).to_property_graph(), graph);
}

// ------------------------------------------------------------ error paths

TEST(ShardStoreErrorTest, CorruptManifestNamesTheFile) {
  ScratchDir dir("corrupt_manifest");
  std::ofstream(dir.path() / "manifest.json") << "{ not json";
  try {
    const ShardStoreReader reader(dir.str());
    FAIL() << "expected CsbError";
  } catch (const CsbError& error) {
    EXPECT_NE(std::string(error.what()).find("manifest"), std::string::npos)
        << error.what();
  }
}

TEST(ShardStoreErrorTest, TruncatedShardNamesTheFile) {
  const SeedBundle seed = small_seed(300);
  ScratchDir dir("truncated");
  ClusterSim cluster(four_cores());
  ShardStoreOptions store_options;
  store_options.directory = dir.str();
  store_options.shard_count = 2;
  ShardStore store(store_options);
  (void)pgpba_fast_generate_into(seed.graph, seed.profile, cluster,
                                 pgpba_options(seed), store);

  const fs::path victim = dir.path() / "edges-0001.bin";
  fs::resize_file(victim, fs::file_size(victim) / 2);
  try {
    const ShardStoreReader reader(dir.str());
    FAIL() << "expected CsbError";
  } catch (const CsbError& error) {
    EXPECT_NE(std::string(error.what()).find("edges-0001.bin"),
              std::string::npos)
        << error.what();
  }
}

TEST(ShardStoreErrorTest, FlippedByteFailsChecksumNamingTheFile) {
  const SeedBundle seed = small_seed(300);
  ScratchDir dir("flipped");
  ClusterSim cluster(four_cores());
  ShardStoreOptions store_options;
  store_options.directory = dir.str();
  store_options.shard_count = 2;
  ShardStore store(store_options);
  (void)pgpba_fast_generate_into(seed.graph, seed.profile, cluster,
                                 pgpba_options(seed), store);

  // Flip one byte in the middle of shard 0's edge columns: sizes still
  // match, so only the checksum can catch it.
  const fs::path victim = dir.path() / "edges-0000.bin";
  {
    std::fstream file(victim,
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekg(static_cast<std::streamoff>(fs::file_size(victim) / 2));
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    file.seekp(static_cast<std::streamoff>(fs::file_size(victim) / 2));
    file.write(&byte, 1);
  }
  const ShardStoreReader reader(dir.str());
  try {
    reader.verify();
    FAIL() << "expected CsbError";
  } catch (const CsbError& error) {
    EXPECT_NE(std::string(error.what()).find("edges-0000.bin"),
              std::string::npos)
        << error.what();
  }
}

TEST(ShardStoreErrorTest, ParallelVerifyFlippedShardByteNamesTheFile) {
  const SeedBundle seed = small_seed(300);
  ScratchDir dir("par_flipped_shard");
  ClusterSim cluster(four_cores());
  ShardStoreOptions store_options;
  store_options.directory = dir.str();
  store_options.shard_count = 4;
  ShardStore store(store_options);
  (void)pgpba_fast_generate_into(seed.graph, seed.profile, cluster,
                                 pgpba_options(seed), store);

  const fs::path victim = dir.path() / "edges-0002.bin";
  {
    std::fstream file(victim,
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(static_cast<std::streamoff>(fs::file_size(victim) / 2));
    file.write("\x01", 1);
  }
  const ShardStoreReader reader(dir.str());
  ThreadPool pool(4);
  try {
    reader.verify(&pool);
    FAIL() << "expected CsbError";
  } catch (const CsbError& error) {
    // The fan-out rethrows the first failing shard's error, so the message
    // still names the offending file even under a pool.
    EXPECT_NE(std::string(error.what()).find("edges-0002.bin"),
              std::string::npos)
        << error.what();
  }
}

TEST(ShardStoreErrorTest, ParallelVerifyFlippedCsrByteNamesTheFile) {
  const SeedBundle seed = small_seed(300);
  ScratchDir dir("par_flipped_csr");
  ClusterSim cluster(four_cores());
  ShardStoreOptions store_options;
  store_options.directory = dir.str();
  store_options.shard_count = 2;
  ShardStore store(store_options);
  (void)pgpba_fast_generate_into(seed.graph, seed.profile, cluster,
                                 pgpba_options(seed), store);

  // Flip a byte in the neighbor section of csr.bin: the size and the shard
  // files stay valid, so only the parallel CSR word-sum pass can catch it.
  const fs::path victim = dir.path() / "csr.bin";
  {
    std::fstream file(victim,
                      std::ios::binary | std::ios::in | std::ios::out);
    const auto offset =
        static_cast<std::streamoff>(fs::file_size(victim) - 16);
    file.seekg(offset);
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x20);
    file.seekp(offset);
    file.write(&byte, 1);
  }
  const ShardStoreReader reader(dir.str());
  ThreadPool pool(4);
  try {
    reader.verify(&pool);
    FAIL() << "expected CsbError";
  } catch (const CsbError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("csr.bin"), std::string::npos) << what;
    EXPECT_NE(what.find("checksum"), std::string::npos) << what;
  }
}

/// Overwrites 8-byte word `index` of `file` and returns the old word.
std::uint64_t poke_word(const fs::path& file, std::uint64_t index,
                        std::uint64_t value) {
  std::fstream io(file, std::ios::binary | std::ios::in | std::ios::out);
  std::uint64_t old = 0;
  io.seekg(static_cast<std::streamoff>(index * 8));
  io.read(reinterpret_cast<char*>(&old), 8);
  io.seekp(static_cast<std::streamoff>(index * 8));
  io.write(reinterpret_cast<const char*>(&value), 8);
  EXPECT_TRUE(io.good()) << file;
  return old;
}

TEST(ShardStoreErrorTest, StructurallyCorruptCsrThrowsAtOpenNamingTheFile) {
  const SeedBundle seed = small_seed(300);
  ScratchDir dir("csr_structure");
  ClusterSim cluster(four_cores());
  ShardStoreOptions store_options;
  store_options.directory = dir.str();
  store_options.shard_count = 2;
  ShardStore store(store_options);
  (void)pgsk_fast_generate_into(seed.graph, seed.profile, cluster,
                                pgsk_options(seed), store);
  const std::uint64_t n = store.manifest().vertices;
  const std::uint64_t m = store.manifest().edges;
  ASSERT_GT(n, 2u);
  // csr.bin words: 3 header words, out_degree[n], in_offsets[n+1],
  // in_neighbors[m].
  const std::uint64_t out_degree = 3;
  const std::uint64_t in_offsets = 3 + n;
  const std::uint64_t in_neighbors = 3 + n + n + 1;
  const fs::path csr = dir.path() / "csr.bin";
  const auto read_word = [&](std::uint64_t index) {
    const std::uint64_t word = poke_word(csr, index, 0);
    poke_word(csr, index, word);
    return word;
  };
  const std::uint64_t d0 = read_word(out_degree);
  const std::uint64_t d1 = read_word(out_degree + 1);
  const std::map<std::string, std::map<std::uint64_t, std::uint64_t>> cases = {
      {"in_offsets[n/2] = 2^40", {{in_offsets + n / 2, 1ULL << 40}}},
      {"in_offsets[0] = 1", {{in_offsets, 1}}},
      {"in_offsets[n] = m - 1", {{in_offsets + n, m - 1}}},
      {"neighbor = n", {{in_neighbors + m / 2, n}}},
      {"out_degree sum off by one", {{out_degree, d0 + 1}}},
      {"out_degree sum wraps mod 2^64",
       {{out_degree, d0 + (1ULL << 63)}, {out_degree + 1, d1 + (1ULL << 63)}}},
  };
  ThreadPool pool(4);
  for (const auto& [name, words] : cases) {
    std::map<std::uint64_t, std::uint64_t> saved;
    for (const auto& [index, value] : words) {
      saved[index] = poke_word(csr, index, value);
    }
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      try {
        const ShardStoreReader reader(dir.str(), p);
        ADD_FAILURE() << name << ": expected CsbError at open";
      } catch (const CsbError& error) {
        EXPECT_NE(std::string(error.what()).find("csr.bin"),
                  std::string::npos)
            << name << ": " << error.what();
      }
    }
    for (const auto& [index, value] : saved) poke_word(csr, index, value);
  }
  const ShardStoreReader intact(dir.str(), &pool);
  EXPECT_NO_THROW(intact.verify(&pool));
}

TEST(ShardStoreErrorTest, ParallelVerifyMatchesSerialOnIntactStore) {
  const SeedBundle seed = small_seed(300);
  ScratchDir dir("par_intact");
  ClusterSim cluster(four_cores());
  ShardStoreOptions store_options;
  store_options.directory = dir.str();
  store_options.shard_count = 4;
  ShardStore store(store_options);
  (void)pgpba_fast_generate_into(seed.graph, seed.profile, cluster,
                                 pgpba_options(seed), store);

  const ShardStoreReader reader(dir.str());
  EXPECT_NO_THROW(reader.verify());
  ThreadPool pool(8);
  EXPECT_NO_THROW(reader.verify(&pool));
}

/// Runs `action` and expects a CsbError whose message contains `needle`.
template <typename Action>
void expect_error_naming(const Action& action, const std::string& needle) {
  try {
    action();
    ADD_FAILURE() << "expected CsbError naming " << needle;
  } catch (const CsbError& error) {
    EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
        << error.what();
  }
}

TEST(ShardStoreErrorTest, ManifestFileNameOutsideTheDirectoryIsRejected) {
  const SeedBundle seed = small_seed(300);
  ScratchDir dir("escape");
  const fs::path store_dir = dir.path() / "store";
  ShardStore store(ShardStoreOptions{.directory = store_dir.string(),
                                     .shard_count = 2});
  replay_graph_into(seed.graph, store, 0);
  // Move shard 0 out of the store and point the manifest at it: the files
  // still hold the right bytes, so only the name check can refuse them.
  fs::rename(store_dir / "edges-0000.bin", dir.path() / "edges-0000.bin");
  std::string manifest = read_file_bytes(store_dir / "manifest.json");
  const std::string name = "\"edges-0000.bin\"";
  ASSERT_NE(manifest.find(name), std::string::npos);
  manifest.replace(manifest.find(name), name.size(), "\"../edges-0000.bin\"");
  std::ofstream(store_dir / "manifest.json", std::ios::trunc) << manifest;
  expect_error_naming([&] { (void)ShardStoreReader(store_dir.string()); },
                      "manifest.json");
}

TEST(ShardStoreErrorTest, UnfinishedRewriteLeavesNoManifest) {
  const SeedBundle seed = small_seed(300);
  ScratchDir dir("rewrite");
  const ShardStoreOptions options{.directory = dir.str(), .shard_count = 2};
  {
    ShardStore store(options);
    replay_graph_into(seed.graph, store, 0);
  }
  ASSERT_NO_THROW((void)ShardStoreReader(dir.str()));
  {
    // A second writer into the same directory dies before finish(): the
    // old manifest and csr.bin must not vouch for the new shard bytes.
    ShardStore rewrite(options);
    rewrite.begin(StoreHeader{.vertices = seed.graph.num_vertices(),
                              .edges = seed.graph.num_edges(),
                              .with_properties = seed.graph.has_properties()});
    const std::size_t half = seed.graph.num_edges() / 2;
    rewrite.put_edges(0, seed.graph.sources().subspan(0, half),
                      seed.graph.destinations().subspan(0, half));
  }
  expect_error_naming([&] { (void)ShardStoreReader(dir.str()); },
                      "manifest.json");
  EXPECT_FALSE(fs::exists(dir.path() / "manifest.json.tmp"));
}

TEST(ShardStoreErrorTest, FlippedPropertyColumnByteNamesTheFile) {
  // Two shards of 75,000 rows, so each shard's property scan spans two
  // 65,536-row chunks. One case per column of props-0001.bin, in schema
  // order; the rows straddle the chunk boundary and the last one sits in
  // the final chunk.
  constexpr std::uint64_t kShardRows = 75'000;
  PropertyGraph graph(1000);
  for (std::uint64_t e = 0; e < 2 * kShardRows; ++e) {
    graph.add_edge(e % 1000, (e * 7 + 3) % 1000,
                   EdgeProperties{.protocol = Protocol::kUdp,
                                  .src_port = static_cast<std::uint16_t>(e),
                                  .dst_port = 53,
                                  .duration_ms = static_cast<std::uint32_t>(e),
                                  .out_bytes = e * 3,
                                  .in_bytes = e * 5,
                                  .out_pkts = 2,
                                  .in_pkts = 1,
                                  .state = ConnState::kSF});
  }
  ScratchDir dir("prop_columns");
  ShardStore store(ShardStoreOptions{
      .directory = dir.str(), .shard_count = 2, .build_csr = false});
  replay_graph_into(graph, store, 0);
  const ShardStoreReader reader(dir.str());
  ThreadPool pool(4);
  const fs::path victim = dir.path() / "props-0001.bin";
  const std::string pristine = read_file_bytes(victim);

  struct Case {
    std::uint64_t width;
    std::uint64_t row;
  };
  const Case cases[] = {{1, 0},     {2, 65'535}, {2, 65'536},
                        {4, 1},     {8, 40'000}, {8, 65'537},
                        {4, 70'000}, {4, 12},    {1, kShardRows - 1}};
  std::uint64_t column_start = 0;
  for (const Case& c : cases) {
    std::string bytes = pristine;
    bytes[column_start + c.row * c.width] ^= 0x10;
    column_start += c.width * kShardRows;
    std::ofstream(victim, std::ios::binary | std::ios::trunc) << bytes;
    SCOPED_TRACE("column width " + std::to_string(c.width) + ", row " +
                 std::to_string(c.row));
    expect_error_naming([&] { reader.verify(); }, "props-0001.bin");
    expect_error_naming([&] { reader.verify(&pool); }, "props-0001.bin");
    expect_error_naming([&] { (void)reader.to_property_graph(); },
                        "props-0001.bin");
  }
  EXPECT_EQ(column_start, pristine.size());
  std::ofstream(victim, std::ios::binary | std::ios::trunc) << pristine;
  EXPECT_EQ(reader.to_property_graph(), graph);
}

// ------------------------------------------------------- ExternalDistinct

TEST(ExternalDistinctTest, MatchesSortUniqueAcrossBudgetsAndOrders) {
  std::mt19937_64 rng(99);
  std::vector<std::uint64_t> keys(300'000);
  for (auto& key : keys) key = rng() % 50'000;  // plenty of duplicates

  std::vector<std::uint64_t> expected = keys;
  std::sort(expected.begin(), expected.end());
  expected.erase(std::unique(expected.begin(), expected.end()),
                 expected.end());

  // 1 << 19 is the minimum budget (one IO chunk): 300k keys spill ~4 runs.
  for (const std::uint64_t budget : {1ULL << 30, 1ULL << 19}) {
    for (const bool shuffled : {false, true}) {
      ScratchDir dir("distinct_" + std::to_string(budget) +
                     (shuffled ? "_s" : "_o"));
      std::vector<std::uint64_t> input = keys;
      if (shuffled) {
        std::mt19937_64 shuffle_rng(7);
        std::shuffle(input.begin(), input.end(), shuffle_rng);
      }
      ExternalDistinctOptions options;
      options.spill_directory = dir.str();
      options.memory_budget_bytes = budget;
      ExternalDistinct distinct(options);
      // Feed in uneven chunks to exercise boundary handling.
      for (std::size_t i = 0; i < input.size();) {
        const std::size_t take = std::min<std::size_t>(777, input.size() - i);
        distinct.add(std::span(input).subspan(i, take));
        i += take;
      }
      EXPECT_EQ(distinct.seal(), expected.size());
      if (budget == (1ULL << 19)) {
        EXPECT_GT(distinct.spilled_runs(), 0u);
      }

      std::vector<std::uint64_t> got;
      distinct.scan([&](std::span<const std::uint64_t> chunk) {
        got.insert(got.end(), chunk.begin(), chunk.end());
      });
      EXPECT_EQ(got, expected);
    }
  }
}

TEST(ExternalDistinctTest, RangePartitionedMergeMatchesSerialSortUnique) {
  // Full-width 64-bit keys so the R key-range partitions all carry load,
  // plus heavy duplication so every partition's merge actually drops keys.
  std::mt19937_64 rng(123);
  std::vector<std::uint64_t> keys;
  keys.reserve(300'000);
  for (std::size_t i = 0; i < 100'000; ++i) keys.push_back(rng());
  for (std::size_t i = 0; i < 200'000; ++i) {
    keys.push_back(keys[rng() % 100'000]);
  }

  std::vector<std::uint64_t> expected = keys;
  std::sort(expected.begin(), expected.end());
  expected.erase(std::unique(expected.begin(), expected.end()),
                 expected.end());

  for (const std::size_t pool_size : {1u, 2u, 8u}) {
    ScratchDir dir("distinct_pool_" + std::to_string(pool_size));
    ThreadPool pool(pool_size);
    ExternalDistinctOptions options;
    options.spill_directory = dir.str();
    options.memory_budget_bytes = 1ULL << 19;  // minimum: forces ~5 runs
    options.pool = &pool;
    ExternalDistinct distinct(options);
    for (std::size_t i = 0; i < keys.size();) {
      const std::size_t take = std::min<std::size_t>(777, keys.size() - i);
      distinct.add(std::span(keys).subspan(i, take));
      i += take;
    }
    EXPECT_EQ(distinct.seal(), expected.size());
    EXPECT_GT(distinct.spilled_runs(), 0u);
    // One part file per key range; the range count follows the pool size.
    EXPECT_EQ(distinct.merge_partitions(), pool_size);

    std::vector<std::uint64_t> got;
    distinct.scan([&](std::span<const std::uint64_t> chunk) {
      got.insert(got.end(), chunk.begin(), chunk.end());
    });
    EXPECT_EQ(got, expected) << "pool " << pool_size;
  }
}

// ------------------------------------------------------- format registry

TEST(GraphFormatTest, RegistryFindsBuiltinsAndRejectsUnknown) {
  EXPECT_NE(find_graph_format("binary"), nullptr);
  EXPECT_NE(find_graph_format("csv"), nullptr);
  EXPECT_NE(find_graph_format("graphml"), nullptr);
  EXPECT_NE(find_graph_format("shards"), nullptr);
  EXPECT_EQ(find_graph_format("carrier-pigeon"), nullptr);
  EXPECT_TRUE(require_graph_format("shards").is_directory_format());
  EXPECT_FALSE(require_graph_format("binary").is_directory_format());
  try {
    (void)require_graph_format("carrier-pigeon");
    FAIL() << "expected CsbError";
  } catch (const CsbError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("carrier-pigeon"), std::string::npos) << what;
    EXPECT_NE(what.find("binary"), std::string::npos) << what;
    EXPECT_NE(what.find("shards"), std::string::npos) << what;
  }
}

TEST(GraphFormatTest, ShardsFormatRoundTripsAGraph) {
  const SeedBundle seed = small_seed(300);
  ScratchDir dir("format_roundtrip");
  const std::string path = (dir.path() / "g.shards").string();
  const GraphFormat& format = require_graph_format("shards");
  format.save(seed.graph, path);
  EXPECT_EQ(format.load(path), seed.graph);
}

// ------------------------------------------------------- option descriptors

TEST(OptionSpecTest, CheckOptionValueValidatesByKind) {
  const OptionSpec u64_spec{"edges", OptionKind::kU64, "", ""};
  const OptionSpec dbl_spec{"noise", OptionKind::kDouble, "", ""};
  const OptionSpec flag_spec{"dedup", OptionKind::kFlag, "", ""};
  EXPECT_NO_THROW(check_option_value(u64_spec, "42"));
  EXPECT_NO_THROW(check_option_value(dbl_spec, "0.25"));
  EXPECT_NO_THROW(check_option_value(flag_spec, "whatever"));
  EXPECT_THROW(check_option_value(u64_spec, "4x2"), CsbError);
  EXPECT_THROW(check_option_value(dbl_spec, "fast"), CsbError);
}

TEST(OptionSpecTest, ValidateExtraOptionsNamesUnknownKey) {
  const Generator& generator = require_generator("pgsk-fast");
  GenConfig config;
  config.extra["nois"] = "0.1";  // typo
  try {
    validate_extra_options(generator.options(), config);
    FAIL() << "expected CsbError";
  } catch (const CsbError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("nois"), std::string::npos) << what;
    EXPECT_NE(what.find("noise"), std::string::npos) << what;
  }
}

TEST(OptionSpecTest, EveryRegisteredGeneratorPublishesWellFormedSpecs) {
  for (const Generator* generator : all_generators()) {
    for (const OptionSpec& spec : generator->options()) {
      EXPECT_FALSE(spec.name.empty()) << generator->name();
      EXPECT_FALSE(spec.help.empty())
          << generator->name() << " --" << spec.name;
      if (!spec.default_value.empty()) {
        EXPECT_NO_THROW(check_option_value(spec, spec.default_value))
            << generator->name() << " --" << spec.name;
      }
    }
  }
}

}  // namespace
}  // namespace csb
