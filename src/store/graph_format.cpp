#include "store/graph_format.hpp"

#include <fstream>
#include <mutex>
#include <utility>

#include "graph/graph_io.hpp"
#include "store/shard_store.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace csb {

namespace {

class BinaryFormat final : public GraphFormat {
 public:
  [[nodiscard]] std::string_view name() const override { return "binary"; }
  [[nodiscard]] std::string_view description() const override {
    return "compact column dump (round-trips everything)";
  }
  void save(const PropertyGraph& graph, const std::string& path) const override {
    save_binary_file(graph, path);
  }
  [[nodiscard]] PropertyGraph load(const std::string& path) const override {
    return load_binary_file(path);
  }
};

class CsvFormat final : public GraphFormat {
 public:
  [[nodiscard]] std::string_view name() const override { return "csv"; }
  [[nodiscard]] std::string_view description() const override {
    return "one 'src,dst,<netflow columns>' row per edge";
  }
  void save(const PropertyGraph& graph, const std::string& path) const override {
    std::ofstream out(path, std::ios::trunc);
    CSB_CHECK_MSG(out.is_open(), "cannot create output file: " << path);
    save_csv(graph, out);
    CSB_CHECK_MSG(out.good(), "failed writing output file: " << path);
  }
  [[nodiscard]] PropertyGraph load(const std::string& path) const override {
    std::ifstream in(path);
    CSB_CHECK_MSG(in.is_open(), "cannot open input file: " << path);
    return load_csv(in, path);
  }
};

class GraphmlFormat final : public GraphFormat {
 public:
  [[nodiscard]] std::string_view name() const override { return "graphml"; }
  [[nodiscard]] std::string_view description() const override {
    return "GraphML export for Neo4j/Gephi/NetworkX hand-off";
  }
  void save(const PropertyGraph& graph, const std::string& path) const override {
    std::ofstream out(path, std::ios::trunc);
    CSB_CHECK_MSG(out.is_open(), "cannot create output file: " << path);
    save_graphml(graph, out);
    CSB_CHECK_MSG(out.good(), "failed writing output file: " << path);
  }
  [[nodiscard]] PropertyGraph load(const std::string& path) const override {
    std::ifstream in(path);
    CSB_CHECK_MSG(in.is_open(), "cannot open input file: " << path);
    return load_graphml(in, path);
  }
};

/// Chunked replay of an in-RAM graph through a ShardStore. The CLI path
/// for `--out-format=shards` on generators that stream directly is
/// Generator::generate_into; this covers everything else (and load).
class ShardsFormat final : public GraphFormat {
 public:
  [[nodiscard]] std::string_view name() const override { return "shards"; }
  [[nodiscard]] std::string_view description() const override {
    return "sharded on-disk store directory with mmap CSR index";
  }
  [[nodiscard]] bool is_directory_format() const override { return true; }
  void save(const PropertyGraph& graph, const std::string& path) const override {
    ShardStoreOptions options;
    options.directory = path;
    options.pool = &global_pool();
    ShardStore store(options);
    replay_graph_into(graph, store, /*seed=*/0);
  }
  [[nodiscard]] PropertyGraph load(const std::string& path) const override {
    return ShardStoreReader(path).to_property_graph();
  }
};

struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<GraphFormat>> formats;
};

/// Built lazily on first access so builtin registration cannot be
/// dead-stripped or raced by static-init order (same shape as the
/// Generator registry).
Registry& registry() {
  static Registry instance;
  static std::once_flag once;
  std::call_once(once, [] {
    instance.formats.push_back(std::make_unique<BinaryFormat>());
    instance.formats.push_back(std::make_unique<CsvFormat>());
    instance.formats.push_back(std::make_unique<GraphmlFormat>());
    instance.formats.push_back(std::make_unique<ShardsFormat>());
  });
  return instance;
}

}  // namespace

void replay_graph_into(const PropertyGraph& graph, GraphStore& store,
                       std::uint64_t seed) {
  constexpr std::size_t kChunk = 1 << 16;
  const std::uint64_t edges = graph.num_edges();
  const bool with_props = graph.has_properties();
  store.begin(StoreHeader{
      .vertices = graph.num_vertices(),
      .edges = edges,
      .with_properties = with_props,
      .seed = seed,
  });
  const auto src = graph.sources();
  const auto dst = graph.destinations();
  for (std::uint64_t at = 0; at < edges; at += kChunk) {
    const std::size_t count =
        static_cast<std::size_t>(std::min<std::uint64_t>(kChunk, edges - at));
    store.put_edges(at, src.subspan(at, count), dst.subspan(at, count));
    if (with_props) {
      const PropertyRowsView rows{
          .protocol = graph.protocols().subspan(at, count),
          .src_port = graph.src_ports().subspan(at, count),
          .dst_port = graph.dst_ports().subspan(at, count),
          .duration_ms = graph.durations_ms().subspan(at, count),
          .out_bytes = graph.out_bytes().subspan(at, count),
          .in_bytes = graph.in_bytes().subspan(at, count),
          .out_pkts = graph.out_pkts().subspan(at, count),
          .in_pkts = graph.in_pkts().subspan(at, count),
          .state = graph.states().subspan(at, count),
      };
      store.put_properties(at, rows);
    }
  }
  store.finish();
}

void register_graph_format(std::unique_ptr<GraphFormat> format) {
  CSB_CHECK_MSG(format != nullptr, "cannot register a null graph format");
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  for (auto& existing : r.formats) {
    if (existing->name() == format->name()) {
      existing = std::move(format);
      return;
    }
  }
  r.formats.push_back(std::move(format));
}

const GraphFormat* find_graph_format(std::string_view name) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  for (const auto& format : r.formats) {
    if (format->name() == name) return format.get();
  }
  return nullptr;
}

const GraphFormat& require_graph_format(std::string_view name) {
  if (const GraphFormat* format = find_graph_format(name)) return *format;
  std::string available;
  for (const GraphFormat* format : all_graph_formats()) {
    if (!available.empty()) available += ", ";
    available += format->name();
  }
  throw CsbError("unknown output format '" + std::string(name) +
                 "' (registered formats: " + available + ")");
}

std::vector<const GraphFormat*> all_graph_formats() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<const GraphFormat*> out;
  out.reserve(r.formats.size());
  for (const auto& format : r.formats) out.push_back(format.get());
  return out;
}

}  // namespace csb
