// The benchmark's query workload (paper §I: "To be representative from the
// workload perspective, the benchmark must include typical operations
// executed in the cyber-security domain, such as queries on nodes, edges,
// paths, and sub-graphs").
//
// GraphQueryEngine answers that catalogue over a property graph:
//   nodes     — top-k hosts by degree or traffic volume, host summaries;
//   edges     — flow scans under a NetFlow predicate;
//   paths     — BFS shortest paths and k-hop reachability;
//   subgraphs — egonets and the "scanning fan" star pattern an analyst
//               hunts for (one source, many small flows).
//
// Construction builds the out-CSR view once (its opposite degrees are the
// in-degrees); all queries are read-only and safe to issue from multiple
// threads concurrently.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/csr.hpp"
#include "graph/property_graph.hpp"

namespace csb {

/// Edge predicate over the §III NetFlow attributes; unset fields match
/// everything.
struct FlowFilter {
  std::optional<Protocol> protocol;
  std::optional<std::uint16_t> dst_port;
  std::uint64_t min_total_bytes = 0;
  std::uint64_t max_total_bytes = UINT64_MAX;
  std::optional<ConnState> state;

  [[nodiscard]] bool matches(const PropertyGraph& graph, EdgeId e) const;
};

struct HostSummary {
  VertexId host = 0;
  std::uint64_t flows_out = 0;
  std::uint64_t flows_in = 0;
  std::uint64_t bytes_sent = 0;      ///< sum over incident flows, both roles
  std::uint64_t bytes_received = 0;
};

class GraphQueryEngine {
 public:
  explicit GraphQueryEngine(const PropertyGraph& graph);
  /// The engine aliases the graph; a temporary would dangle immediately.
  explicit GraphQueryEngine(PropertyGraph&&) = delete;

  [[nodiscard]] const PropertyGraph& graph() const noexcept { return *graph_; }

  // --- node queries ---

  /// Hosts with the largest total degree, descending; ties by smaller id.
  [[nodiscard]] std::vector<VertexId> top_k_by_degree(std::size_t k) const;

  /// Hosts moving the most bytes (sent + received). Requires properties.
  [[nodiscard]] std::vector<VertexId> top_k_by_traffic(std::size_t k) const;

  [[nodiscard]] HostSummary host_summary(VertexId host) const;

  // --- edge queries ---

  [[nodiscard]] std::uint64_t count_flows(const FlowFilter& filter) const;

  /// Matching edge ids, at most `limit` (0 = unlimited), in edge order.
  [[nodiscard]] std::vector<EdgeId> find_flows(const FlowFilter& filter,
                                               std::size_t limit = 0) const;

  // --- path queries ---

  /// Directed BFS shortest path (vertex sequence src..dst); nullopt when
  /// unreachable.
  [[nodiscard]] std::optional<std::vector<VertexId>> shortest_path(
      VertexId src, VertexId dst) const;

  /// All vertices within `hops` directed hops of `start` (excluding it),
  /// ascending order.
  [[nodiscard]] std::vector<VertexId> k_hop_neighborhood(
      VertexId start, std::uint32_t hops) const;

  // --- subgraph queries ---

  /// The induced subgraph of `center` and its direct (out+in) neighbors;
  /// vertex ids are remapped densely, center first. Properties preserved.
  [[nodiscard]] PropertyGraph egonet(VertexId center) const;

  /// "Scanning fan" pattern: sources emitting at least `min_fanout` flows
  /// whose average size is below `max_avg_bytes` — the sub-graph shape of
  /// §IV's scanning traffic (host scans fan over one target's ports,
  /// network scans over many hosts; both are many-small-probe stars).
  /// Ascending host order.
  [[nodiscard]] std::vector<VertexId> scanning_fans(
      std::uint64_t min_fanout, double max_avg_bytes) const;

 private:
  const PropertyGraph* graph_;
  CsrView out_csr_;
};

}  // namespace csb
