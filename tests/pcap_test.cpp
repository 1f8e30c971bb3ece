// Unit tests for src/pcap: checksums, frame encode/decode round trips, and
// the indexed capture reader and the writer (including foreign byte order).
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <sstream>

#include "pcap/packet.hpp"
#include "pcap/pcap_file.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace csb {
namespace {

FrameSpec spec_with_payload(std::uint16_t payload) {
  return FrameSpec{
      .src_ip = 0x0a000001,  // 10.0.0.1
      .dst_ip = 0x0a000002,
      .src_port = 49152,
      .dst_port = 80,
      .ttl = 64,
      .payload_len = payload,
  };
}

// --------------------------------------------------------------- checksum

TEST(ChecksumTest, Rfc1071ReferenceVector) {
  // Classic example: 0x0001 0xf203 0xf4f5 0xf6f7 -> checksum 0x220d.
  const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(internet_checksum(data, sizeof data), 0x220d);
}

TEST(ChecksumTest, OddLengthHandled) {
  const std::uint8_t data[] = {0xff, 0x00, 0xab};
  // Manual: 0xff00 + 0xab00 = 0x1aa00 -> fold 0xaa01 -> ~ = 0x55fe.
  EXPECT_EQ(internet_checksum(data, sizeof data), 0x55fe);
}

TEST(ChecksumTest, VerifiesToZeroWhenEmbedded) {
  // IPv4 header of any built frame must verify: sum over the header with
  // the checksum field included is 0 (i.e. checksum(header) == 0).
  const auto frame = build_tcp_frame(spec_with_payload(0), kTcpSyn);
  EXPECT_EQ(internet_checksum(frame.data() + kEthernetHeaderLen,
                              kIpv4MinHeaderLen),
            0);
}

// --------------------------------------------------- frame encode/decode

class TcpFrameTest : public ::testing::TestWithParam<std::uint16_t> {};

TEST_P(TcpFrameTest, EncodeDecodeRoundTrip) {
  const std::uint16_t payload = GetParam();
  const FrameSpec spec = spec_with_payload(payload);
  const auto frame =
      build_tcp_frame(spec, static_cast<std::uint8_t>(kTcpSyn | kTcpAck));
  const auto decoded = decode_frame(frame.data(), frame.size(),
                                    static_cast<std::uint32_t>(frame.size()),
                                    123456789);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->src_ip, spec.src_ip);
  EXPECT_EQ(decoded->dst_ip, spec.dst_ip);
  EXPECT_EQ(decoded->protocol, 6);
  EXPECT_EQ(decoded->src_port, spec.src_port);
  EXPECT_EQ(decoded->dst_port, spec.dst_port);
  EXPECT_EQ(decoded->tcp_flags, kTcpSyn | kTcpAck);
  EXPECT_EQ(decoded->payload_bytes, payload);
  EXPECT_EQ(decoded->wire_bytes, frame.size());
  EXPECT_EQ(decoded->timestamp_us, 123456789u);
}

INSTANTIATE_TEST_SUITE_P(Payloads, TcpFrameTest,
                         ::testing::Values(0, 1, 10, 100, 1000, 1460));

class UdpFrameTest : public ::testing::TestWithParam<std::uint16_t> {};

TEST_P(UdpFrameTest, EncodeDecodeRoundTrip) {
  const FrameSpec spec = spec_with_payload(GetParam());
  const auto frame = build_udp_frame(spec);
  const auto decoded = decode_frame(frame.data(), frame.size(),
                                    static_cast<std::uint32_t>(frame.size()),
                                    0);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->protocol, 17);
  EXPECT_EQ(decoded->payload_bytes, GetParam());
  EXPECT_EQ(frame.size(),
            kEthernetHeaderLen + kIpv4MinHeaderLen + 8u + GetParam());
}

INSTANTIATE_TEST_SUITE_P(Payloads, UdpFrameTest,
                         ::testing::Values(0, 64, 512, 1460));

TEST(IcmpFrameTest, EncodeDecodeRoundTrip) {
  const FrameSpec spec = spec_with_payload(56);
  const auto frame = build_icmp_frame(spec, /*request=*/true);
  const auto decoded = decode_frame(frame.data(), frame.size(),
                                    static_cast<std::uint32_t>(frame.size()),
                                    0);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->protocol, 1);
  EXPECT_EQ(decoded->src_port, 0);
  EXPECT_EQ(decoded->payload_bytes, 56u);
}

TEST(DecodeTest, RejectsNonIpv4Ethertype) {
  auto frame = build_udp_frame(spec_with_payload(10));
  frame[12] = 0x86;  // 0x86dd = IPv6
  frame[13] = 0xdd;
  EXPECT_FALSE(decode_frame(frame.data(), frame.size(), 0, 0).has_value());
}

TEST(DecodeTest, RejectsUnsupportedProtocol) {
  auto frame = build_udp_frame(spec_with_payload(10));
  frame[kEthernetHeaderLen + 9] = 47;  // GRE
  EXPECT_FALSE(decode_frame(frame.data(), frame.size(), 0, 0).has_value());
}

TEST(DecodeTest, RejectsRunts) {
  const std::uint8_t tiny[10] = {};
  EXPECT_FALSE(decode_frame(tiny, sizeof tiny, 0, 0).has_value());
}

TEST(DecodeTest, SnapTruncationUsesOrigLen) {
  // Simulate a snaplen-truncated capture: only the first 60 bytes of a
  // large frame were stored, but orig_len records the wire size.
  const auto frame = build_tcp_frame(spec_with_payload(1400), kTcpAck);
  const auto decoded = decode_frame(frame.data(), 60,
                                    static_cast<std::uint32_t>(frame.size()),
                                    0);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->wire_bytes, frame.size());
  EXPECT_EQ(decoded->payload_bytes, 1400u);  // from the IPv4 total length
}

// ----------------------------------------------------------- file format

/// Indexes an in-memory capture, e.g. what a PcapWriter left in a buffer.
IndexedPcap index_buffer(const std::string& bytes) {
  return index_pcap({bytes.begin(), bytes.end()}, "buffer.pcap");
}

TEST(PcapFileTest, WriteReadRoundTrip) {
  std::vector<PcapPacket> packets;
  for (int i = 0; i < 5; ++i) {
    PcapPacket packet;
    packet.timestamp_us = 1'000'000ull * i + 250'000;
    packet.data = build_udp_frame(spec_with_payload(100 + i));
    packet.orig_len = static_cast<std::uint32_t>(packet.data.size());
    packets.push_back(packet);
  }
  std::stringstream buffer;
  {
    PcapWriter writer(buffer);
    for (const auto& packet : packets) writer.write(packet);
    EXPECT_EQ(writer.packets_written(), 5u);
  }
  const IndexedPcap capture = index_buffer(buffer.str());
  EXPECT_EQ(capture.linktype, kLinktypeEthernet);
  ASSERT_EQ(capture.records.size(), packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    EXPECT_EQ(capture.packet(i), packets[i]) << "record " << i;
  }
}

TEST(PcapFileTest, SnaplenTruncatesOnWrite) {
  std::stringstream buffer;
  PcapWriter writer(buffer, /*snaplen=*/64);
  PcapPacket packet;
  packet.data = build_tcp_frame(spec_with_payload(1000), kTcpAck);
  packet.orig_len = static_cast<std::uint32_t>(packet.data.size());
  writer.write(packet);
  const IndexedPcap capture = index_buffer(buffer.str());
  ASSERT_EQ(capture.records.size(), 1u);
  EXPECT_EQ(capture.snaplen, 64u);
  EXPECT_EQ(capture.packet(0).data.size(), 64u);
  EXPECT_EQ(capture.packet(0).orig_len, packet.orig_len);
}

TEST(PcapFileTest, ReadsSwappedByteOrder) {
  // Hand-build a big-endian (swapped relative to x86) capture with one
  // 4-byte record.
  const auto be32 = [](std::uint32_t v) {
    return std::string{static_cast<char>(v >> 24),
                       static_cast<char>((v >> 16) & 0xff),
                       static_cast<char>((v >> 8) & 0xff),
                       static_cast<char>(v & 0xff)};
  };
  const auto be16 = [](std::uint16_t v) {
    return std::string{static_cast<char>(v >> 8),
                       static_cast<char>(v & 0xff)};
  };
  std::string file;
  file += be32(0xa1b2c3d4);  // magic written big-endian => swapped on read
  file += be16(2) + be16(4);
  file += be32(0) + be32(0) + be32(65535) + be32(1);
  file += be32(10) + be32(500000) + be32(4) + be32(4);  // record header
  file += std::string("\x01\x02\x03\x04", 4);
  const IndexedPcap capture = index_buffer(file);
  EXPECT_EQ(capture.snaplen, 65535u);
  EXPECT_EQ(capture.linktype, 1u);
  ASSERT_EQ(capture.records.size(), 1u);
  const PcapPacket packet = capture.packet(0);
  EXPECT_EQ(packet.timestamp_us, 10'500'000u);
  EXPECT_EQ(packet.data, (std::vector<std::uint8_t>{1, 2, 3, 4}));
  EXPECT_EQ(packet.orig_len, 4u);
}

TEST(PcapFileTest, NanosecondMagicConverted) {
  std::stringstream buffer;
  const std::uint32_t magic = 0xa1b23c4d;
  const std::uint16_t v2 = 2;
  const std::uint16_t v4 = 4;
  const std::uint32_t zero = 0;
  const std::uint32_t snap = 65535;
  const std::uint32_t link = 1;
  buffer.write(reinterpret_cast<const char*>(&magic), 4);
  buffer.write(reinterpret_cast<const char*>(&v2), 2);
  buffer.write(reinterpret_cast<const char*>(&v4), 2);
  buffer.write(reinterpret_cast<const char*>(&zero), 4);
  buffer.write(reinterpret_cast<const char*>(&zero), 4);
  buffer.write(reinterpret_cast<const char*>(&snap), 4);
  buffer.write(reinterpret_cast<const char*>(&link), 4);
  const std::uint32_t ts_sec = 1;
  const std::uint32_t ts_nsec = 750'000'000;  // 750 ms
  const std::uint32_t len = 0;
  buffer.write(reinterpret_cast<const char*>(&ts_sec), 4);
  buffer.write(reinterpret_cast<const char*>(&ts_nsec), 4);
  buffer.write(reinterpret_cast<const char*>(&len), 4);
  buffer.write(reinterpret_cast<const char*>(&len), 4);
  const IndexedPcap capture = index_buffer(buffer.str());
  ASSERT_EQ(capture.records.size(), 1u);
  EXPECT_EQ(capture.records[0].timestamp_us, 1'750'000u);
}

TEST(PcapFileTest, RejectsBadMagic) {
  EXPECT_THROW(index_buffer(std::string(24, 'x')), CsbError);
  EXPECT_THROW(index_buffer(std::string(23, '\0')), CsbError);
}

TEST(PcapFileTest, RejectsTruncatedRecord) {
  // Two records; cutting 7 bytes off the end truncates the second one,
  // and the error names the file and that record's offset.
  std::vector<PcapPacket> packets(2);
  for (auto& packet : packets) {
    packet.data = build_udp_frame(spec_with_payload(10));
    packet.orig_len = static_cast<std::uint32_t>(packet.data.size());
  }
  const std::string path = ::testing::TempDir() + "/csb_pcap_truncated.pcap";
  write_pcap_file(path, packets);
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 7);
  const std::uint64_t second = 24 + 16 + packets[0].data.size();
  try {
    (void)index_pcap_file(path);
    FAIL() << "truncated capture accepted";
  } catch (const CsbError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(path + "@" + std::to_string(second) + ": "),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("truncated"), std::string::npos) << what;
  }
  EXPECT_THROW((void)read_pcap_file(path), CsbError);
}

// The name predates the indexed reader as the only reader; the test now
// checks index_pcap and read_pcap_file against the packets the writer wrote.
TEST(PcapFileTest, IndexedReaderMatchesStreamingReader) {
  std::vector<PcapPacket> packets;
  for (int i = 0; i < 60; ++i) {
    PcapPacket packet;
    packet.timestamp_us = 1'000ull * static_cast<std::uint64_t>(i);
    FrameSpec spec = spec_with_payload(static_cast<std::uint16_t>(20 + i));
    spec.src_port = static_cast<std::uint16_t>(40000 + i);
    packet.data = i % 3 == 0   ? build_tcp_frame(spec, kTcpSyn)
                  : i % 3 == 1 ? build_udp_frame(spec)
                               : build_icmp_frame(spec, true);
    packet.orig_len = static_cast<std::uint32_t>(packet.data.size());
    packets.push_back(packet);
  }
  const std::string path = ::testing::TempDir() + "/csb_pcap_index_test.pcap";
  write_pcap_file(path, packets);

  std::stringstream buffer;
  {
    PcapWriter writer(buffer);
    for (const auto& packet : packets) writer.write(packet);
  }
  const IndexedPcap capture = index_buffer(buffer.str());
  ASSERT_EQ(capture.records.size(), packets.size());
  EXPECT_EQ(index_pcap_file(path).data, capture.data);
  const auto serial = read_pcap_file(path);
  ThreadPool pool(4);
  const auto pooled = read_pcap_file(path, &pool);
  EXPECT_EQ(serial, packets);
  EXPECT_EQ(pooled, packets);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    EXPECT_EQ(capture.packet(i), packets[i]) << "record " << i;
    EXPECT_EQ(capture.records[i].timestamp_us, packets[i].timestamp_us);
  }
}

TEST(PcapFileTest, FileRoundTrip) {
  std::vector<PcapPacket> packets(3);
  for (int i = 0; i < 3; ++i) {
    packets[i].timestamp_us = i;
    packets[i].data = build_icmp_frame(spec_with_payload(8), true);
    packets[i].orig_len = static_cast<std::uint32_t>(packets[i].data.size());
  }
  const std::string path = ::testing::TempDir() + "/csb_pcap_test.pcap";
  write_pcap_file(path, packets);
  const auto loaded = read_pcap_file(path);
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded[2].data, packets[2].data);
}

}  // namespace
}  // namespace csb
