#include "store/graph_store.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace csb {

void PropertyRowsBuffer::reserve(std::size_t rows) {
  for_each_column(*this,
                  [rows](std::size_t, auto& column) { column.reserve(rows); });
}

void PropertyRowsBuffer::push_back(const EdgeProperties& props) {
  protocol.push_back(props.protocol);
  src_port.push_back(props.src_port);
  dst_port.push_back(props.dst_port);
  duration_ms.push_back(props.duration_ms);
  out_bytes.push_back(props.out_bytes);
  in_bytes.push_back(props.in_bytes);
  out_pkts.push_back(props.out_pkts);
  in_pkts.push_back(props.in_pkts);
  state.push_back(props.state);
}

PropertyRowsView PropertyRowsBuffer::view() const noexcept {
  return PropertyRowsView{
      .protocol = protocol,
      .src_port = src_port,
      .dst_port = dst_port,
      .duration_ms = duration_ms,
      .out_bytes = out_bytes,
      .in_bytes = in_bytes,
      .out_pkts = out_pkts,
      .in_pkts = in_pkts,
      .state = state,
  };
}

namespace {

template <typename Column, typename T>
void copy_at(Column& column, std::uint64_t first, std::span<const T> values) {
  std::copy(values.begin(), values.end(), column.begin() + first);
}

}  // namespace

void MemoryStore::begin(const StoreHeader& header) {
  CSB_CHECK_MSG(!begun_, "MemoryStore::begin called twice");
  begun_ = true;
  header_ = header;
  // The chunks land directly in the final columns: endpoints are allocated
  // (zeroed) here, property columns are attached for overwrite, so finish()
  // has nothing left to copy.
  graph_ = PropertyGraph(header.vertices);
  graph_.src_.resize(header.edges);
  graph_.dst_.resize(header.edges);
  if (header.with_properties) graph_.ensure_properties_for_overwrite();
}

void MemoryStore::put_edges(std::uint64_t first_edge,
                            std::span<const VertexId> src,
                            std::span<const VertexId> dst) {
  CSB_CHECK_MSG(begun_ && !finished_, "put_edges outside begin/finish");
  CSB_CHECK_MSG(src.size() == dst.size(), "endpoint spans must align");
  CSB_CHECK_MSG(first_edge + src.size() <= header_.edges,
                "edge chunk exceeds the announced edge count");
  // The endpoint check runs per chunk inside the caller's task, keeping the
  // O(|E|) scan off the driver.
  VertexId* const out_src = graph_.src_.data() + first_edge;
  VertexId* const out_dst = graph_.dst_.data() + first_edge;
  VertexId max_seen = 0;
  for (std::size_t i = 0; i < src.size(); ++i) {
    out_src[i] = src[i];
    out_dst[i] = dst[i];
    max_seen = std::max({max_seen, src[i], dst[i]});
  }
  CSB_CHECK_MSG(src.empty() || max_seen < header_.vertices,
                "edge endpoints must be existing vertices");
}

void MemoryStore::put_properties(std::uint64_t first_edge,
                                 const PropertyRowsView& rows) {
  CSB_CHECK_MSG(begun_ && !finished_, "put_properties outside begin/finish");
  CSB_CHECK_MSG(header_.with_properties,
                "put_properties on a structure-only store");
  CSB_CHECK_MSG(first_edge + rows.size() <= header_.edges,
                "property chunk exceeds the announced edge count");
  copy_at(graph_.protocol_, first_edge, rows.protocol);
  copy_at(graph_.src_port_, first_edge, rows.src_port);
  copy_at(graph_.dst_port_, first_edge, rows.dst_port);
  copy_at(graph_.duration_ms_, first_edge, rows.duration_ms);
  copy_at(graph_.out_bytes_, first_edge, rows.out_bytes);
  copy_at(graph_.in_bytes_, first_edge, rows.in_bytes);
  copy_at(graph_.out_pkts_, first_edge, rows.out_pkts);
  copy_at(graph_.in_pkts_, first_edge, rows.in_pkts);
  copy_at(graph_.state_, first_edge, rows.state);
}

void MemoryStore::finish() {
  CSB_CHECK_MSG(begun_ && !finished_, "finish outside begin / called twice");
  finished_ = true;
}

const PropertyGraph& MemoryStore::graph() const {
  CSB_CHECK_MSG(finished_, "MemoryStore::graph before finish");
  return graph_;
}

PropertyGraph MemoryStore::take_graph() {
  CSB_CHECK_MSG(finished_, "MemoryStore::take_graph before finish");
  return std::move(graph_);
}

}  // namespace csb
