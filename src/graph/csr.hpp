// Compressed-sparse-row adjacency: the one adjacency type in src/. PageRank,
// veracity, components, betweenness, the query engine and the shard store's
// mapped csr.bin all read it.
//
// A view holds one direction's offsets and neighbor lists plus the other
// direction's per-vertex degrees, as spans over arrays it owns (built from
// a PropertyGraph) or borrows (a mapped csr.bin). A kIn view holds exactly
// what csr.bin holds: out_degree[V], in_offsets[V+1], in_neighbors[E].
//
// The builder is a serial stable counting sort, O(|V| + |E|): each
// vertex's neighbors stay in edge order (PageRank's float sums depend on
// that order). The borrowing constructor checks the structure once, so no
// reader indexes out of bounds on corrupt bytes.
// Views are immutable; concurrent readers need no synchronization.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "graph/property_graph.hpp"

namespace csb {

class ThreadPool;

enum class CsrDirection {
  kOut,  ///< neighbors(v) = heads of edges leaving v
  kIn,   ///< neighbors(v) = tails of edges entering v
};

class CsrView {
 public:
  /// Degrees, offsets and vertex ids are all 64-bit words.
  using Array = std::span<const std::uint64_t>;

  /// Builds the view from the graph's edge list.
  CsrView(const PropertyGraph& graph, CsrDirection direction);

  /// Borrows arrays that must outlive the view, after checking that the
  /// offsets run from 0 to |E| without decreasing, that every neighbor is
  /// a vertex and that the opposite degrees sum to |E|. Throws CsbError
  /// naming `source` on a violation. `release`, when set, gets each slice
  /// once it is checked, so a caller that maps the arrays from a file can
  /// drop their pages as the scan goes instead of holding them all.
  CsrView(Array opposite_degrees, Array offsets, Array neighbors,
          std::string_view source, ThreadPool* pool = nullptr,
          void (*release)(Array) = nullptr);

  // The spans point into the owned vectors: a copy would alias them.
  CsrView(const CsrView&) = delete;
  CsrView& operator=(const CsrView&) = delete;

  [[nodiscard]] std::uint64_t num_vertices() const noexcept {
    return opposite_degrees_.size();
  }
  [[nodiscard]] std::uint64_t num_edges() const noexcept {
    return neighbors_.size();
  }

  [[nodiscard]] Array neighbors(VertexId v) const {
    CSB_ASSERT(v < num_vertices());
    return neighbors_.subspan(offsets_[v], offsets_[v + 1] - offsets_[v]);
  }
  [[nodiscard]] std::uint64_t degree(VertexId v) const {
    CSB_ASSERT(v < num_vertices());
    return offsets_[v + 1] - offsets_[v];
  }
  [[nodiscard]] std::uint64_t total_degree(VertexId v) const {
    return degree(v) + opposite_degrees_[v];
  }

  [[nodiscard]] Array offsets() const noexcept { return offsets_; }
  [[nodiscard]] Array all_neighbors() const noexcept { return neighbors_; }
  /// csr.bin's names for a kIn view's arrays (pagerank_csr's spans).
  [[nodiscard]] Array in_offsets() const noexcept { return offsets_; }
  [[nodiscard]] Array in_neighbors() const noexcept { return neighbors_; }
  [[nodiscard]] Array out_degrees() const noexcept {
    return opposite_degrees_;
  }

 private:
  std::vector<std::uint64_t> owned_opposite_;
  std::vector<std::uint64_t> owned_offsets_;
  std::vector<VertexId> owned_neighbors_;
  Array opposite_degrees_;
  Array offsets_;
  Array neighbors_;
};

}  // namespace csb
