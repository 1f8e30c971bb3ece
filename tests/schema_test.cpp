// Schema-level tests: the §III NetFlow property enums, their string forms
// (which the CSV/GraphML formats depend on), and randomized IO round trips
// across all three graph formats.
#include <gtest/gtest.h>

#include <sstream>

#include "graph/graph_io.hpp"
#include "graph/properties.hpp"
#include "graph/property_graph.hpp"
#include "util/byte_reader.hpp"
#include "util/random.hpp"

namespace csb {
namespace {

// ----------------------------------------------------------------- enums

TEST(SchemaTest, ProtocolStringsAndValues) {
  // IANA numbers, so PCAP protocol bytes map without translation.
  EXPECT_EQ(static_cast<int>(Protocol::kIcmp), 1);
  EXPECT_EQ(static_cast<int>(Protocol::kTcp), 6);
  EXPECT_EQ(static_cast<int>(Protocol::kUdp), 17);
  EXPECT_EQ(to_string(Protocol::kTcp), "TCP");
  EXPECT_EQ(to_string(Protocol::kUdp), "UDP");
  EXPECT_EQ(to_string(Protocol::kIcmp), "ICMP");
}

TEST(SchemaTest, ConnStateStringsAreBroStyle) {
  EXPECT_EQ(to_string(ConnState::kNone), "-");
  EXPECT_EQ(to_string(ConnState::kS0), "S0");
  EXPECT_EQ(to_string(ConnState::kS1), "S1");
  EXPECT_EQ(to_string(ConnState::kSF), "SF");
  EXPECT_EQ(to_string(ConnState::kRej), "REJ");
  EXPECT_EQ(to_string(ConnState::kRsto), "RSTO");
  EXPECT_EQ(to_string(ConnState::kRstr), "RSTR");
  EXPECT_EQ(to_string(ConnState::kOth), "OTH");
}

TEST(SchemaTest, AttributeCatalogueMatchesPaperSectionThree) {
  // The paper lists exactly nine De attributes.
  EXPECT_EQ(kNetflowAttributeCount, 9u);
  EXPECT_EQ(to_string(NetflowAttribute::kProtocol), "PROTOCOL");
  EXPECT_EQ(to_string(NetflowAttribute::kSrcPort), "SRC_PORT");
  EXPECT_EQ(to_string(NetflowAttribute::kDstPort), "DEST_PORT");
  EXPECT_EQ(to_string(NetflowAttribute::kDurationMs), "DURATION");
  EXPECT_EQ(to_string(NetflowAttribute::kOutBytes), "OUT_BYTES");
  EXPECT_EQ(to_string(NetflowAttribute::kInBytes), "IN_BYTES");
  EXPECT_EQ(to_string(NetflowAttribute::kOutPkts), "OUT_PKTS");
  EXPECT_EQ(to_string(NetflowAttribute::kInPkts), "IN_PKTS");
  EXPECT_EQ(to_string(NetflowAttribute::kState), "STATE");
}

TEST(SchemaTest, EdgePropertiesDefaultIsEmptyTcpTuple) {
  const EdgeProperties p{};
  EXPECT_EQ(p.protocol, Protocol::kTcp);
  EXPECT_EQ(p.out_bytes, 0u);
  EXPECT_EQ(p.state, ConnState::kNone);
  EXPECT_EQ(p, EdgeProperties{});
}

// ------------------------------------------------- randomized IO sweep

PropertyGraph random_property_graph(std::uint64_t seed) {
  Rng rng(seed);
  const std::uint64_t vertices = 2 + rng.uniform(40);
  PropertyGraph g(vertices);
  const std::uint64_t edges = 1 + rng.uniform(120);
  constexpr Protocol kProtocols[] = {Protocol::kTcp, Protocol::kUdp,
                                     Protocol::kIcmp};
  constexpr ConnState kStates[] = {ConnState::kNone, ConnState::kS0,
                                   ConnState::kS1,   ConnState::kSF,
                                   ConnState::kRej,  ConnState::kRsto,
                                   ConnState::kRstr, ConnState::kOth};
  for (std::uint64_t e = 0; e < edges; ++e) {
    EdgeProperties p;
    p.protocol = kProtocols[rng.uniform(3)];
    p.src_port = static_cast<std::uint16_t>(rng.uniform(65536));
    p.dst_port = static_cast<std::uint16_t>(rng.uniform(65536));
    p.duration_ms = static_cast<std::uint32_t>(rng.uniform(1u << 30));
    p.out_bytes = rng.uniform(1ULL << 40);
    p.in_bytes = rng.uniform(1ULL << 40);
    p.out_pkts = static_cast<std::uint32_t>(rng.uniform(1u << 20));
    p.in_pkts = static_cast<std::uint32_t>(rng.uniform(1u << 20));
    p.state = p.protocol == Protocol::kTcp ? kStates[1 + rng.uniform(7)]
                                           : ConnState::kNone;
    // The last edge pins the highest vertex id so formats that infer the
    // vertex count from endpoints (CSV) reconstruct it exactly.
    if (e + 1 == edges) {
      g.add_edge(vertices - 1, 0, p);
    } else {
      g.add_edge(rng.uniform(vertices), rng.uniform(vertices), p);
    }
  }
  return g;
}

class IoSweepTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IoSweepTest, BinaryRoundTripsRandomGraphExactly) {
  const PropertyGraph g = random_property_graph(GetParam());
  std::stringstream buffer;
  save_binary(g, buffer);
  EXPECT_EQ(load_binary(byte_span(buffer.str()), "buffer"), g);
}

TEST_P(IoSweepTest, CsvRoundTripsRandomGraphExactly) {
  const PropertyGraph g = random_property_graph(GetParam() ^ 0xc5);
  std::stringstream buffer;
  save_csv(g, buffer);
  EXPECT_EQ(load_csv(buffer), g);
}

TEST_P(IoSweepTest, GraphmlRoundTripsRandomGraphExactly) {
  const PropertyGraph g = random_property_graph(GetParam() ^ 0x91);
  std::stringstream buffer;
  save_graphml(g, buffer);
  EXPECT_EQ(load_graphml(buffer), g);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IoSweepTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace csb
