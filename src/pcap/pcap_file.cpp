#include "pcap/pcap_file.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>

#include "util/byte_reader.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace csb {

namespace {

constexpr std::uint32_t kMagicUsec = 0xa1b2c3d4;
constexpr std::uint32_t kMagicNsec = 0xa1b23c4d;
constexpr std::uint32_t kMagicUsecSwapped = 0xd4c3b2a1;
constexpr std::uint32_t kMagicNsecSwapped = 0x4d3cb2a1;
constexpr std::uint16_t kVersionMajor = 2;
constexpr std::uint16_t kVersionMinor = 4;

std::uint32_t byteswap32(std::uint32_t v) noexcept {
  return ((v & 0x000000ffu) << 24) | ((v & 0x0000ff00u) << 8) |
         ((v & 0x00ff0000u) >> 8) | ((v & 0xff000000u) >> 24);
}

std::uint16_t byteswap16(std::uint16_t v) noexcept {
  return static_cast<std::uint16_t>((v << 8) | (v >> 8));
}

/// Records per fixed chunk when filling packet vectors from an index.
constexpr std::size_t kReadChunk = 2048;

}  // namespace

PcapWriter::PcapWriter(std::ostream& out, std::uint32_t snaplen)
    : out_(out), snaplen_(snaplen) {
  CSB_CHECK_MSG(snaplen_ > 0, "pcap snaplen must be positive");
  write_pod(out_, kMagicUsec);
  write_pod(out_, kVersionMajor);
  write_pod(out_, kVersionMinor);
  write_pod(out_, std::int32_t{0});   // thiszone (GMT offset)
  write_pod(out_, std::uint32_t{0});  // sigfigs
  write_pod(out_, snaplen_);
  write_pod(out_, kLinktypeEthernet);
  CSB_CHECK_MSG(out_.good(), "failed writing pcap global header");
}

void PcapWriter::write(const PcapPacket& packet) {
  const std::uint32_t incl_len = static_cast<std::uint32_t>(
      std::min<std::size_t>(packet.data.size(), snaplen_));
  write_pod(out_, static_cast<std::uint32_t>(packet.timestamp_us / 1000000));
  write_pod(out_, static_cast<std::uint32_t>(packet.timestamp_us % 1000000));
  write_pod(out_, incl_len);
  write_pod(out_, packet.orig_len);
  out_.write(reinterpret_cast<const char*>(packet.data.data()), incl_len);
  CSB_CHECK_MSG(out_.good(), "failed writing pcap record");
  ++packets_;
}

void write_pcap_file(const std::string& path,
                     const std::vector<PcapPacket>& packets) {
  std::ofstream out(path, std::ios::binary);
  CSB_CHECK_MSG(out.is_open(), "cannot open for writing: " << path);
  PcapWriter writer(out);
  for (const auto& packet : packets) writer.write(packet);
}

PcapPacket IndexedPcap::packet(std::size_t i) const {
  const PcapRecordRef& ref = records[i];
  PcapPacket out;
  out.timestamp_us = ref.timestamp_us;
  out.orig_len = ref.orig_len;
  out.data.assign(bytes(ref), bytes(ref) + ref.captured_len);
  return out;
}

IndexedPcap index_pcap(std::vector<std::uint8_t> data, std::string name) {
  IndexedPcap capture;
  capture.data = std::move(data);
  ByteReader in(capture.data, std::move(name));
  bool swapped = false;
  bool nanoseconds = false;
  switch (in.read<std::uint32_t>()) {
    case kMagicUsec: break;
    case kMagicNsec: nanoseconds = true; break;
    case kMagicUsecSwapped: swapped = true; break;
    case kMagicNsecSwapped:
      swapped = true;
      nanoseconds = true;
      break;
    default:
      in.fail_at(0, "not a pcap file (bad magic)");
  }
  const auto u32 = [&] {
    const auto v = in.read<std::uint32_t>();
    return swapped ? byteswap32(v) : v;
  };
  const auto major = in.read<std::uint16_t>();
  if ((swapped ? byteswap16(major) : major) != kVersionMajor) {
    in.fail_at(4, "unsupported pcap version");
  }
  in.skip(2 + 4 + 4);  // minor version, thiszone, sigfigs
  capture.snaplen = u32();
  capture.linktype = u32();

  // One sequential walk over the record headers; payload bytes stay where
  // they are, only (timestamp, lengths, offset) go into the index.
  const std::uint64_t max_record = std::uint64_t{capture.snaplen} + 65536;
  while (in.remaining() > 0) {
    const std::uint64_t at = in.offset();
    const std::uint32_t ts_sec = u32();
    const std::uint32_t ts_frac = u32();
    const std::uint32_t incl_len = u32();
    const std::uint32_t orig_len = u32();
    if (incl_len > max_record || incl_len > in.remaining()) {
      in.fail_at(at, "pcap record of " + std::to_string(incl_len) +
                         " captured bytes, " +
                         std::to_string(in.remaining()) + " left (truncated)");
    }
    capture.records.push_back(PcapRecordRef{
        .timestamp_us = static_cast<std::uint64_t>(ts_sec) * 1000000 +
                        (nanoseconds ? ts_frac / 1000 : ts_frac),
        .orig_len = orig_len,
        .captured_len = incl_len,
        .offset = in.offset(),
    });
    in.skip(incl_len);
  }
  return capture;
}

IndexedPcap index_pcap_file(const std::string& path) {
  return index_pcap(read_file(path), path);
}

std::vector<PcapPacket> read_pcap_file(const std::string& path,
                                       ThreadPool* pool) {
  const IndexedPcap capture = index_pcap_file(path);
  std::vector<PcapPacket> packets(capture.records.size());
  parallel_for_fixed_chunks(
      pool, 0, capture.records.size(), kReadChunk,
      [&](const ChunkRange& chunk) {
        for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
          packets[i] = capture.packet(i);
        }
      });
  return packets;
}

}  // namespace csb
