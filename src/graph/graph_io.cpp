#include "graph/graph_io.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <istream>
#include <iterator>
#include <optional>
#include <ostream>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/byte_reader.hpp"
#include "util/error.hpp"
#include "util/format.hpp"

namespace csb {

namespace {

constexpr char kMagic[4] = {'C', 'S', 'B', 'G'};
constexpr std::uint32_t kVersion = 1;

template <typename T>
void write_column(std::ostream& out, std::span<const T> column) {
  out.write(reinterpret_cast<const char*>(column.data()),
            static_cast<std::streamsize>(column.size() * sizeof(T)));
}

constexpr std::array<std::string_view, 11> kCsvColumns = {
    "src",       "dst",      "protocol", "src_port", "dst_port", "duration_ms",
    "out_bytes", "in_bytes", "out_pkts", "in_pkts",  "state"};

/// Sets the property named `key` (a CSV column or GraphML data key) from
/// `text`; other keys are ignored (foreign GraphML exports carry more).
void set_property(EdgeProperties& p, std::string_view key,
                  std::string_view text, const std::string& source,
                  std::uint64_t line) {
  const auto number = [&](auto& out) {
    out = parse_field<std::remove_reference_t<decltype(out)>>(text, source,
                                                              line, key);
  };
  const auto checked = [&](const auto& value, std::string_view expected) {
    if (!value) field_error(source, line, key, text, expected);
    return *value;
  };
  if (key == "protocol") {
    p.protocol = checked(protocol_from_string(text), "a protocol");
  } else if (key == "src_port") {
    number(p.src_port);
  } else if (key == "dst_port") {
    number(p.dst_port);
  } else if (key == "duration_ms") {
    number(p.duration_ms);
  } else if (key == "out_bytes") {
    number(p.out_bytes);
  } else if (key == "in_bytes") {
    number(p.in_bytes);
  } else if (key == "out_pkts") {
    number(p.out_pkts);
  } else if (key == "in_pkts") {
    number(p.in_pkts);
  } else if (key == "state") {
    p.state = checked(state_from_string(text), "a connection state");
  }
}

}  // namespace

void save_binary(const PropertyGraph& graph, std::ostream& out) {
  out.write(kMagic, sizeof kMagic);
  write_pod(out, kVersion);
  write_pod(out, graph.num_vertices());
  write_pod(out, graph.num_edges());
  const std::uint8_t has_props = graph.has_properties() ? 1 : 0;
  write_pod(out, has_props);
  write_column(out, graph.sources());
  write_column(out, graph.destinations());
  if (has_props) {
    write_column(out, graph.protocols());
    write_column(out, graph.src_ports());
    write_column(out, graph.dst_ports());
    write_column(out, graph.durations_ms());
    write_column(out, graph.out_bytes());
    write_column(out, graph.in_bytes());
    write_column(out, graph.out_pkts());
    write_column(out, graph.in_pkts());
    write_column(out, graph.states());
  }
  CSB_CHECK_MSG(out.good(), "failed writing binary graph stream");
}

PropertyGraph load_binary(std::span<const std::uint8_t> bytes,
                          const std::string& name) {
  ByteReader in(bytes, name);
  if (in.remaining() < sizeof kMagic ||
      std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0) {
    in.fail("not a csb binary graph (bad magic)");
  }
  in.skip(sizeof kMagic);
  if (in.read<std::uint32_t>() != kVersion) {
    in.fail("unsupported binary graph version");
  }
  const auto vertices = in.read<std::uint64_t>();
  const auto edges = in.read<std::uint64_t>();
  const bool has_props = in.read<std::uint8_t>() != 0;
  // A vertex count sizes every per-vertex array downstream; the edge count
  // must fit the bytes that are actually there.
  if (vertices > (1ULL << 44)) {
    in.fail("implausible vertex count " + std::to_string(vertices));
  }
  if (edges > in.remaining() / PropertyGraph::bytes_per_edge(has_props)) {
    in.fail("edge count " + std::to_string(edges) + " exceeds the " +
            std::to_string(in.remaining()) + " bytes left");
  }

  auto src = in.read_column<VertexId>(edges);
  auto dst = in.read_column<VertexId>(edges);
  if (edges > 0 && std::max(*std::max_element(src.begin(), src.end()),
                            *std::max_element(dst.begin(), dst.end())) >=
                       vertices) {
    in.fail("an edge endpoint is not below the vertex count");
  }
  PropertyGraph graph = PropertyGraph::from_columns_unchecked(
      vertices, std::move(src), std::move(dst));
  if (!has_props) return graph;
  // The property columns are copied row by row straight from the input, so
  // the load holds the input plus the graph and no third copy.
  ByteReader protocol = in.sub(edges * sizeof(Protocol));
  ByteReader src_port = in.sub(edges * sizeof(std::uint16_t));
  ByteReader dst_port = in.sub(edges * sizeof(std::uint16_t));
  ByteReader duration = in.sub(edges * sizeof(std::uint32_t));
  ByteReader out_bytes = in.sub(edges * sizeof(std::uint64_t));
  ByteReader in_bytes = in.sub(edges * sizeof(std::uint64_t));
  ByteReader out_pkts = in.sub(edges * sizeof(std::uint32_t));
  ByteReader in_pkts = in.sub(edges * sizeof(std::uint32_t));
  ByteReader state = in.sub(edges * sizeof(ConnState));
  graph.ensure_properties_for_overwrite();
  for (EdgeId e = 0; e < edges; ++e) {
    graph.set_edge_properties(
        e, EdgeProperties{
               .protocol = protocol.read<Protocol>(),
               .src_port = src_port.read<std::uint16_t>(),
               .dst_port = dst_port.read<std::uint16_t>(),
               .duration_ms = duration.read<std::uint32_t>(),
               .out_bytes = out_bytes.read<std::uint64_t>(),
               .in_bytes = in_bytes.read<std::uint64_t>(),
               .out_pkts = out_pkts.read<std::uint32_t>(),
               .in_pkts = in_pkts.read<std::uint32_t>(),
               .state = state.read<ConnState>(),
           });
  }
  return graph;
}

void save_binary_file(const PropertyGraph& graph, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  CSB_CHECK_MSG(out.is_open(), "cannot open for writing: " << path);
  save_binary(graph, out);
}

PropertyGraph load_binary_file(const std::string& path) {
  return load_binary(read_file(path), path);
}

void save_csv(const PropertyGraph& graph, std::ostream& out) {
  for (std::size_t i = 0; i < kCsvColumns.size(); ++i) {
    out << (i == 0 ? "" : ",") << kCsvColumns[i];
  }
  out << '\n';
  const bool props = graph.has_properties();
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    out << graph.edge_src(e) << ',' << graph.edge_dst(e);
    if (props) {
      const EdgeProperties p = graph.edge_properties(e);
      out << ',' << to_string(p.protocol) << ',' << p.src_port << ','
          << p.dst_port << ',' << p.duration_ms << ',' << p.out_bytes << ','
          << p.in_bytes << ',' << p.out_pkts << ',' << p.in_pkts << ','
          << to_string(p.state);
    } else {
      out << ",,,,,,,,,";
    }
    out << '\n';
  }
  CSB_CHECK_MSG(out.good(), "failed writing CSV graph stream");
}

PropertyGraph load_csv(std::istream& in, const std::string& name) {
  std::string line;
  if (!std::getline(in, line)) throw CsbError(name + ": empty CSV graph");
  if (line.rfind("src,dst", 0) != 0) {
    throw CsbError(name + ":1: missing CSV header");
  }

  PropertyGraph graph;
  std::vector<std::string_view> fields;
  for (std::uint64_t line_no = 2; std::getline(in, line); ++line_no) {
    if (line.empty()) continue;
    split_fields(line, ',', fields);
    // Structure-only rows may leave out the empty property fields.
    if (fields.size() < kCsvColumns.size()) fields.resize(kCsvColumns.size());
    const auto fail = [&](const std::string& what) {
      throw CsbError(name + ":" + std::to_string(line_no) + ": " + what);
    };
    if (fields.size() != kCsvColumns.size()) {
      fail(std::to_string(fields.size()) + " fields, expected " +
           std::to_string(kCsvColumns.size()));
    }
    const auto src = parse_field<VertexId>(fields[0], name, line_no, "src");
    const auto dst = parse_field<VertexId>(fields[1], name, line_no, "dst");
    const bool has_props = !fields[2].empty();
    if (graph.num_edges() > 0 && has_props != graph.has_properties()) {
      fail("CSV mixes property and structure-only rows");
    }
    // Vertex ids are dense: the graph grows to the largest id seen.
    const VertexId top = std::max(src, dst);
    if (top >= graph.num_vertices()) {
      graph.add_vertices(top - graph.num_vertices() + 1);
    }
    if (!has_props) {
      graph.add_edge(src, dst);
      continue;
    }
    EdgeProperties p;
    for (std::size_t i = 2; i < kCsvColumns.size(); ++i) {
      set_property(p, kCsvColumns[i], fields[i], name, line_no);
    }
    graph.add_edge(src, dst, p);
  }
  return graph;
}

namespace {

/// Value of `attr="..."` inside an XML tag body, or empty if absent.
std::string xml_attribute(const std::string& tag, const std::string& attr) {
  const std::string needle = attr + "=\"";
  const auto at = tag.find(needle);
  if (at == std::string::npos) return {};
  const auto begin = at + needle.size();
  const auto end = tag.find('"', begin);
  if (end == std::string::npos) return {};
  return tag.substr(begin, end - begin);
}

}  // namespace

PropertyGraph load_graphml(std::istream& in, const std::string& name) {
  // Read the whole document and walk <...> elements; text between a
  // <data ...> tag and its closing tag is the attribute value.
  std::string xml((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  if (xml.find("<graphml") == std::string::npos) {
    throw CsbError(name + ": not a GraphML document");
  }

  struct EdgeRow {
    VertexId src;
    VertexId dst;
    bool has_props = false;
    EdgeProperties props;
  };
  std::vector<EdgeRow> edges;
  VertexId max_vertex = 0;
  bool saw_vertex = false;

  std::size_t at = 0;
  std::uint64_t line = 1;  // line of xml[at], counted as `at` advances
  std::size_t counted = 0;
  EdgeRow* open_edge = nullptr;
  // Vertex index of a "n<k>" node id in attribute `attr` of `tag`.
  const auto vertex = [&](const std::string& tag, std::string_view attr) {
    const std::string id = xml_attribute(tag, std::string(attr));
    const auto v = id.starts_with('n')
                       ? parse_number<VertexId>(std::string_view(id).substr(1))
                       : std::nullopt;
    if (!v) field_error(name, line, attr, id, "a node id 'n<k>'");
    return *v;
  };
  while ((at = xml.find('<', at)) != std::string::npos) {
    line += static_cast<std::uint64_t>(
        std::count(xml.begin() + static_cast<std::ptrdiff_t>(counted),
                   xml.begin() + static_cast<std::ptrdiff_t>(at), '\n'));
    counted = at;
    const auto end = xml.find('>', at);
    if (end == std::string::npos) {
      throw CsbError(name + ":" + std::to_string(line) +
                     ": unterminated GraphML tag");
    }
    const std::string tag = xml.substr(at + 1, end - at - 1);

    if (tag.rfind("node", 0) == 0) {
      max_vertex = std::max(max_vertex, vertex(tag, "id"));
      saw_vertex = true;
    } else if (tag.rfind("edge", 0) == 0) {
      EdgeRow row{};
      row.src = vertex(tag, "source");
      row.dst = vertex(tag, "target");
      edges.push_back(row);
      // Self-closing edges carry no data elements.
      open_edge = tag.back() == '/' ? nullptr : &edges.back();
    } else if (tag == "/edge") {
      open_edge = nullptr;
    } else if (tag.rfind("data", 0) == 0 && open_edge != nullptr) {
      const std::string key = xml_attribute(tag, "key");
      const auto value_end = xml.find('<', end + 1);
      if (value_end == std::string::npos) {
        throw CsbError(name + ":" + std::to_string(line) +
                       ": unterminated GraphML data element");
      }
      const std::string_view value =
          std::string_view(xml).substr(end + 1, value_end - end - 1);
      open_edge->has_props = true;
      set_property(open_edge->props, key, value, name, line);
    }
    at = end + 1;
  }

  VertexId vertices = saw_vertex ? max_vertex + 1 : 0;
  for (const EdgeRow& row : edges) {
    vertices = std::max({vertices, row.src + 1, row.dst + 1});
  }
  PropertyGraph graph(vertices);
  graph.reserve_edges(edges.size());
  const bool any_props =
      std::any_of(edges.begin(), edges.end(),
                  [](const EdgeRow& row) { return row.has_props; });
  for (const EdgeRow& row : edges) {
    if (any_props) {
      graph.add_edge(row.src, row.dst, row.props);
    } else {
      graph.add_edge(row.src, row.dst);
    }
  }
  return graph;
}

void save_graphml(const PropertyGraph& graph, std::ostream& out) {
  out << "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
      << "<graphml xmlns=\"http://graphml.graphdrawing.org/xmlns\">\n"
      << "  <key id=\"protocol\" for=\"edge\" attr.name=\"protocol\" "
         "attr.type=\"string\"/>\n"
      << "  <key id=\"src_port\" for=\"edge\" attr.name=\"src_port\" "
         "attr.type=\"int\"/>\n"
      << "  <key id=\"dst_port\" for=\"edge\" attr.name=\"dst_port\" "
         "attr.type=\"int\"/>\n"
      << "  <key id=\"duration_ms\" for=\"edge\" attr.name=\"duration_ms\" "
         "attr.type=\"long\"/>\n"
      << "  <key id=\"out_bytes\" for=\"edge\" attr.name=\"out_bytes\" "
         "attr.type=\"long\"/>\n"
      << "  <key id=\"in_bytes\" for=\"edge\" attr.name=\"in_bytes\" "
         "attr.type=\"long\"/>\n"
      << "  <key id=\"out_pkts\" for=\"edge\" attr.name=\"out_pkts\" "
         "attr.type=\"long\"/>\n"
      << "  <key id=\"in_pkts\" for=\"edge\" attr.name=\"in_pkts\" "
         "attr.type=\"long\"/>\n"
      << "  <key id=\"state\" for=\"edge\" attr.name=\"state\" "
         "attr.type=\"string\"/>\n"
      << "  <graph id=\"G\" edgedefault=\"directed\">\n";
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    out << "    <node id=\"n" << v << "\"/>\n";
  }
  const bool props = graph.has_properties();
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    out << "    <edge source=\"n" << graph.edge_src(e) << "\" target=\"n"
        << graph.edge_dst(e) << "\">";
    if (props) {
      const EdgeProperties p = graph.edge_properties(e);
      out << "\n      <data key=\"protocol\">" << to_string(p.protocol)
          << "</data>\n      <data key=\"src_port\">" << p.src_port
          << "</data>\n      <data key=\"dst_port\">" << p.dst_port
          << "</data>\n      <data key=\"duration_ms\">" << p.duration_ms
          << "</data>\n      <data key=\"out_bytes\">" << p.out_bytes
          << "</data>\n      <data key=\"in_bytes\">" << p.in_bytes
          << "</data>\n      <data key=\"out_pkts\">" << p.out_pkts
          << "</data>\n      <data key=\"in_pkts\">" << p.in_pkts
          << "</data>\n      <data key=\"state\">" << to_string(p.state)
          << "</data>\n    ";
    }
    out << "</edge>\n";
  }
  out << "  </graph>\n</graphml>\n";
  CSB_CHECK_MSG(out.good(), "failed writing GraphML stream");
}

}  // namespace csb
