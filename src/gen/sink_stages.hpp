// Shared building blocks of the GraphStore sink pipelines — the only
// generation path: every generator implements Generator::generate_into, and
// the in-RAM result is a MemoryStore capture of it.
//
// The pipelines share the same moves: split an AoS edge chunk into endpoint
// columns at a global offset, replay the exact re-multiply draw for one
// edge, emit an edge Dataset or a pair of endpoint columns as a store:emit
// stage, and finish with the fixed-geometry property stage plus the
// store:finalize seal. Keeping them here means no two generators can drift
// apart in chunk geometry or cost booking.
#pragma once

#include <cstdint>
#include <span>

#include "gen/generator.hpp"
#include "graph/edge.hpp"
#include "mr/cluster.hpp"
#include "mr/dataset.hpp"
#include "seed/seed.hpp"
#include "store/graph_store.hpp"

namespace csb {

/// Splits an AoS edge chunk into endpoint columns and writes it at its
/// global offset.
void emit_edge_chunk(GraphStore& store, std::uint64_t first,
                     std::span<const Edge> edges);

/// Re-multiply copy count of one placed edge: the per-edge draw from the
/// seed out-degree distribution (Fig. 3 lines 8-12), keyed by the edge
/// identity so it is independent of chunking and scheduling.
std::uint64_t re_multiply_copies(const SeedProfile& profile,
                                 std::uint64_t dup_seed, const Edge& e);

/// The store:props stage: fixed global property chunks (2x the virtual
/// cores), sampled with per-chunk counter streams and written at their
/// global offsets. Books gen.properties_sampled.
void run_property_stage(GraphStore& store, const SeedProfile& profile,
                        ClusterSim& cluster, std::uint64_t prop_seed,
                        std::uint64_t total_edges);

/// Emits an edge Dataset into the store at its concatenation offsets as a
/// store:emit stage. The write offsets are prefix sums over the partition
/// sizes, so the stored stream equals the partition-concatenation order at
/// any worker count.
void emit_dataset_into(const Dataset<Edge>& edges, GraphStore& store,
                       ClusterSim& cluster);

/// Emits a pair of endpoint columns (edge e at offset e) into the store as
/// a store:emit stage of fixed chunks.
void emit_columns_into(std::span<const VertexId> src,
                       std::span<const VertexId> dst, GraphStore& store,
                       ClusterSim& cluster);

/// The tail every sink pipeline shares, once its structure is emitted and
/// result.edges is set: books result.structure_seconds, then (when
/// `with_properties`) runs the "properties" phase via run_property_stage
/// and books result.property_seconds, then seals the store under
/// store:finalize, books gen.edges_materialized, and sets result.metrics.
void finish_sink_pipeline(GraphStore& store, const SeedProfile& profile,
                          ClusterSim& cluster, bool with_properties,
                          std::uint64_t prop_seed, StoreGenResult& result);

}  // namespace csb
