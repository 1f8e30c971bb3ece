#include "workload/query_engine.hpp"

#include <algorithm>
#include <queue>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "util/error.hpp"

namespace csb {

bool FlowFilter::matches(const PropertyGraph& graph, EdgeId e) const {
  if (protocol && graph.protocols()[e] != *protocol) return false;
  if (dst_port && graph.dst_ports()[e] != *dst_port) return false;
  if (state && graph.states()[e] != *state) return false;
  const std::uint64_t total = graph.out_bytes()[e] + graph.in_bytes()[e];
  return total >= min_total_bytes && total <= max_total_bytes;
}

GraphQueryEngine::GraphQueryEngine(const PropertyGraph& graph)
    : graph_(&graph), out_csr_(graph, CsrDirection::kOut) {}

std::vector<VertexId> GraphQueryEngine::top_k_by_degree(std::size_t k) const {
  const std::uint64_t n = graph_->num_vertices();
  std::vector<VertexId> hosts(n);
  for (VertexId v = 0; v < n; ++v) hosts[v] = v;
  const auto degree = [this](VertexId v) { return out_csr_.total_degree(v); };
  k = std::min<std::size_t>(k, n);
  std::partial_sort(hosts.begin(), hosts.begin() + k, hosts.end(),
                    [&](VertexId a, VertexId b) {
                      const auto da = degree(a);
                      const auto db = degree(b);
                      return da != db ? da > db : a < b;
                    });
  hosts.resize(k);
  return hosts;
}

std::vector<VertexId> GraphQueryEngine::top_k_by_traffic(
    std::size_t k) const {
  CSB_CHECK_MSG(graph_->has_properties(),
                "top_k_by_traffic requires NetFlow properties");
  const std::uint64_t n = graph_->num_vertices();
  std::vector<std::uint64_t> volume(n, 0);
  const auto src = graph_->sources();
  const auto dst = graph_->destinations();
  const auto out_bytes = graph_->out_bytes();
  const auto in_bytes = graph_->in_bytes();
  for (std::size_t e = 0; e < src.size(); ++e) {
    const std::uint64_t total = out_bytes[e] + in_bytes[e];
    volume[src[e]] += total;
    volume[dst[e]] += total;
  }
  std::vector<VertexId> hosts(n);
  for (VertexId v = 0; v < n; ++v) hosts[v] = v;
  k = std::min<std::size_t>(k, n);
  std::partial_sort(hosts.begin(), hosts.begin() + k, hosts.end(),
                    [&](VertexId a, VertexId b) {
                      return volume[a] != volume[b] ? volume[a] > volume[b]
                                                    : a < b;
                    });
  hosts.resize(k);
  return hosts;
}

HostSummary GraphQueryEngine::host_summary(VertexId host) const {
  CSB_CHECK_MSG(host < graph_->num_vertices(), "unknown host");
  HostSummary summary;
  summary.host = host;
  summary.flows_out = out_csr_.degree(host);
  summary.flows_in = out_csr_.total_degree(host) - summary.flows_out;
  if (!graph_->has_properties()) return summary;
  const auto src = graph_->sources();
  const auto dst = graph_->destinations();
  const auto out_bytes = graph_->out_bytes();
  const auto in_bytes = graph_->in_bytes();
  for (std::size_t e = 0; e < src.size(); ++e) {
    if (src[e] == host) {
      summary.bytes_sent += out_bytes[e];
      summary.bytes_received += in_bytes[e];
    }
    if (dst[e] == host) {
      summary.bytes_sent += in_bytes[e];
      summary.bytes_received += out_bytes[e];
    }
  }
  return summary;
}

std::uint64_t GraphQueryEngine::count_flows(const FlowFilter& filter) const {
  CSB_CHECK_MSG(graph_->has_properties(),
                "flow queries require NetFlow properties");
  std::uint64_t count = 0;
  for (EdgeId e = 0; e < graph_->num_edges(); ++e) {
    if (filter.matches(*graph_, e)) ++count;
  }
  return count;
}

std::vector<EdgeId> GraphQueryEngine::find_flows(const FlowFilter& filter,
                                                 std::size_t limit) const {
  CSB_CHECK_MSG(graph_->has_properties(),
                "flow queries require NetFlow properties");
  std::vector<EdgeId> matches;
  for (EdgeId e = 0; e < graph_->num_edges(); ++e) {
    if (filter.matches(*graph_, e)) {
      matches.push_back(e);
      if (limit != 0 && matches.size() >= limit) break;
    }
  }
  return matches;
}

std::optional<std::vector<VertexId>> GraphQueryEngine::shortest_path(
    VertexId src, VertexId dst) const {
  CSB_CHECK_MSG(src < graph_->num_vertices() && dst < graph_->num_vertices(),
                "unknown endpoint");
  if (src == dst) return std::vector<VertexId>{src};
  std::vector<VertexId> parent(graph_->num_vertices(),
                               static_cast<VertexId>(-1));
  std::queue<VertexId> frontier;
  frontier.push(src);
  parent[src] = src;
  while (!frontier.empty()) {
    const VertexId v = frontier.front();
    frontier.pop();
    for (const VertexId w : out_csr_.neighbors(v)) {
      if (parent[w] != static_cast<VertexId>(-1)) continue;
      parent[w] = v;
      if (w == dst) {
        std::vector<VertexId> path{dst};
        for (VertexId at = dst; at != src; at = parent[at]) {
          path.push_back(parent[at]);
        }
        std::reverse(path.begin(), path.end());
        return path;
      }
      frontier.push(w);
    }
  }
  return std::nullopt;
}

std::vector<VertexId> GraphQueryEngine::k_hop_neighborhood(
    VertexId start, std::uint32_t hops) const {
  CSB_CHECK_MSG(start < graph_->num_vertices(), "unknown start vertex");
  std::unordered_set<VertexId> visited{start};
  std::vector<VertexId> frontier{start};
  std::vector<VertexId> reached;
  for (std::uint32_t level = 0; level < hops && !frontier.empty(); ++level) {
    std::vector<VertexId> next;
    for (const VertexId v : frontier) {
      for (const VertexId w : out_csr_.neighbors(v)) {
        if (visited.insert(w).second) {
          next.push_back(w);
          reached.push_back(w);
        }
      }
    }
    frontier = std::move(next);
  }
  std::sort(reached.begin(), reached.end());
  return reached;
}

PropertyGraph GraphQueryEngine::egonet(VertexId center) const {
  CSB_CHECK_MSG(center < graph_->num_vertices(), "unknown center vertex");
  // Member set: the center plus its out- and in-neighbors. The scan for
  // in-neighbors stops at the center's last in-edge (its in-degree is the
  // view's opposite degree), so a center with none costs nothing.
  const auto src = graph_->sources();
  const auto dst = graph_->destinations();
  std::set<VertexId> members{center};
  for (const VertexId w : out_csr_.neighbors(center)) members.insert(w);
  std::uint64_t in_left = out_csr_.total_degree(center) -
                          out_csr_.degree(center);
  for (std::size_t e = 0; in_left > 0 && e < dst.size(); ++e) {
    if (dst[e] == center) {
      members.insert(src[e]);
      --in_left;
    }
  }

  std::unordered_map<VertexId, VertexId> remap;
  remap.reserve(members.size());
  remap[center] = 0;
  VertexId next_id = 1;
  for (const VertexId v : members) {
    if (v != center) remap[v] = next_id++;
  }

  PropertyGraph ego(members.size());
  const bool props = graph_->has_properties();
  for (std::size_t e = 0; e < src.size(); ++e) {
    const auto su = remap.find(src[e]);
    if (su == remap.end()) continue;
    const auto sv = remap.find(dst[e]);
    if (sv == remap.end()) continue;
    if (props) {
      ego.add_edge(su->second, sv->second, graph_->edge_properties(e));
    } else {
      ego.add_edge(su->second, sv->second);
    }
  }
  return ego;
}

std::vector<VertexId> GraphQueryEngine::scanning_fans(
    std::uint64_t min_fanout, double max_avg_bytes) const {
  CSB_CHECK_MSG(graph_->has_properties(),
                "scanning_fans requires NetFlow properties");
  const std::uint64_t n = graph_->num_vertices();
  // Per-source distinct destinations, flow count and byte totals.
  std::vector<std::uint64_t> bytes(n, 0);
  std::vector<std::uint64_t> flows(n, 0);
  const auto src = graph_->sources();
  const auto dst = graph_->destinations();
  const auto out_bytes = graph_->out_bytes();
  const auto in_bytes = graph_->in_bytes();
  for (std::size_t e = 0; e < src.size(); ++e) {
    bytes[src[e]] += out_bytes[e] + in_bytes[e];
    flows[src[e]] += 1;
  }

  std::vector<VertexId> fans;
  for (VertexId v = 0; v < n; ++v) {
    if (flows[v] < min_fanout) continue;
    const double avg =
        static_cast<double>(bytes[v]) / static_cast<double>(flows[v]);
    if (avg <= max_avg_bytes) fans.push_back(v);
  }
  return fans;
}

}  // namespace csb
