#include "graph/csr.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "util/error.hpp"
#include "util/parallel.hpp"

namespace csb {

namespace {

/// Slots per chunk of the borrowed-array structural check.
constexpr std::size_t kCheckGrain = std::size_t{1} << 16;

}  // namespace

CsrView::CsrView(const PropertyGraph& graph, CsrDirection direction) {
  const std::uint64_t n = graph.num_vertices();
  const bool out = direction == CsrDirection::kOut;
  const auto key = out ? graph.sources() : graph.destinations();
  const auto val = out ? graph.destinations() : graph.sources();
  owned_offsets_.assign(n + 1, 0);
  owned_opposite_.assign(n, 0);
  for (const VertexId k : key) ++owned_offsets_[k + 1];
  for (const VertexId v : val) ++owned_opposite_[v];
  std::partial_sum(owned_offsets_.begin(), owned_offsets_.end(),
                   owned_offsets_.begin());

  // Walking the edges in order keeps every neighbor list in edge order.
  // offsets[k] is k's cursor; it ends at the old offsets[k + 1], so one
  // shift restores the offsets without a second n-word array.
  owned_neighbors_.resize(key.size());
  for (std::size_t e = 0; e < key.size(); ++e) {
    owned_neighbors_[owned_offsets_[key[e]]++] = val[e];
  }
  std::copy_backward(owned_offsets_.begin(), owned_offsets_.end() - 1,
                     owned_offsets_.end());
  owned_offsets_[0] = 0;
  opposite_degrees_ = owned_opposite_;
  offsets_ = owned_offsets_;
  neighbors_ = owned_neighbors_;
}

CsrView::CsrView(Array opposite_degrees, Array offsets, Array neighbors,
                 std::string_view source, ThreadPool* pool,
                 void (*release)(Array))
    : opposite_degrees_(opposite_degrees),
      offsets_(offsets),
      neighbors_(neighbors) {
  const std::uint64_t n = opposite_degrees.size();
  const std::uint64_t m = neighbors.size();
  const auto check = [&](bool ok, const char* what) {
    CSB_CHECK_MSG(ok, "corrupt CSR file: " << source << ": " << what);
  };
  check(offsets.size() == n + 1 && offsets[0] == 0 && offsets[n] == m,
        "offsets must run from 0 to |E|");
  // One pass checks each chunk's slice of all three arrays. Degree sums
  // saturate at |E| + 1, so a sum that wraps mod 2^64 cannot pass.
  const std::uint64_t slots = std::max(n, m);
  const std::uint64_t cap = m + 1;
  std::vector<std::uint64_t> sums(
      make_fixed_chunks(0, slots, kCheckGrain).size());
  std::atomic<bool> decreasing{false};
  std::atomic<bool> stray{false};
  const auto slice = [](Array words, const ChunkRange& c) {
    const std::size_t first = std::min(c.begin, words.size());
    return words.subspan(first, std::min(c.end, words.size()) - first);
  };
  parallel_for_fixed_chunks(
      pool, 0, slots, kCheckGrain, [&](const ChunkRange& c) {
        bool monotone = true;
        bool inside = true;
        std::uint64_t sum = 0;
        for (std::size_t v = c.begin; v < std::min(c.end, n); ++v) {
          monotone &= offsets[v] <= offsets[v + 1];
          sum = std::min(sum + std::min(opposite_degrees[v], cap), cap);
        }
        for (std::size_t i = c.begin; i < std::min(c.end, m); ++i) {
          inside &= neighbors[i] < n;
        }
        if (!monotone) decreasing = true;
        if (!inside) stray = true;
        sums[c.chunk_index] = sum;
        if (release != nullptr) {
          release(slice(opposite_degrees, c));
          release(slice(offsets, c));
          release(slice(neighbors, c));
        }
      });
  check(!decreasing, "offsets decrease");
  check(!stray, "a neighbor is not a vertex");
  std::uint64_t total = 0;
  for (const std::uint64_t sum : sums) total = std::min(total + sum, cap);
  check(total == m, "the opposite-side degrees do not sum to |E|");
}

}  // namespace csb
