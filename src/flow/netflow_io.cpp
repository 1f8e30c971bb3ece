#include "flow/netflow_io.hpp"

#include <array>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <type_traits>

#include "util/error.hpp"
#include "util/format.hpp"

namespace csb {

namespace {

constexpr std::array<std::string_view, 14> kColumns = {
    "src_ip",   "dst_ip",   "protocol", "src_port",  "dst_port",
    "first_us", "last_us",  "out_bytes", "in_bytes", "out_pkts",
    "in_pkts",  "syn_count", "ack_count", "state"};

/// Dotted-quad text as a host-order address; nullopt unless it is exactly
/// four decimal octets.
std::optional<std::uint32_t> parse_ip(std::string_view text) {
  std::vector<std::string_view> octets;
  split_fields(text, '.', octets);
  if (octets.size() != 4) return std::nullopt;
  std::uint32_t ip = 0;
  for (const std::string_view octet : octets) {
    const auto value = parse_number<std::uint8_t>(octet);
    if (!value) return std::nullopt;
    ip = (ip << 8) | *value;
  }
  return ip;
}

}  // namespace

std::string ip_to_string(std::uint32_t ip) {
  std::ostringstream os;
  os << ((ip >> 24) & 0xff) << '.' << ((ip >> 16) & 0xff) << '.'
     << ((ip >> 8) & 0xff) << '.' << (ip & 0xff);
  return os.str();
}

std::uint32_t ip_from_string(const std::string& text) {
  const auto ip = parse_ip(text);
  if (!ip) throw CsbError("malformed IPv4 address: " + text);
  return *ip;
}

void save_netflow_csv(const std::vector<NetflowRecord>& records,
                      std::ostream& out) {
  for (std::size_t i = 0; i < kColumns.size(); ++i) {
    out << (i == 0 ? "" : ",") << kColumns[i];
  }
  out << '\n';
  for (const auto& r : records) {
    out << ip_to_string(r.src_ip) << ',' << ip_to_string(r.dst_ip) << ','
        << to_string(r.protocol) << ',' << r.src_port << ',' << r.dst_port
        << ',' << r.first_us << ',' << r.last_us << ',' << r.out_bytes << ','
        << r.in_bytes << ',' << r.out_pkts << ',' << r.in_pkts << ','
        << r.syn_count << ',' << r.ack_count << ',' << to_string(r.state)
        << '\n';
  }
  CSB_CHECK_MSG(out.good(), "failed writing netflow CSV");
}

std::vector<NetflowRecord> load_netflow_csv(std::istream& in,
                                            const std::string& name) {
  std::string line;
  if (!std::getline(in, line)) throw CsbError(name + ": empty netflow CSV");
  if (line.rfind("src_ip,", 0) != 0) {
    throw CsbError(name + ":1: missing netflow CSV header");
  }
  std::vector<NetflowRecord> records;
  std::vector<std::string_view> fields;
  for (std::uint64_t line_no = 2; std::getline(in, line); ++line_no) {
    if (line.empty()) continue;
    split_fields(line, ',', fields);
    if (fields.size() != kColumns.size()) {
      throw CsbError(name + ":" + std::to_string(line_no) + ": " +
                     std::to_string(fields.size()) + " fields, expected " +
                     std::to_string(kColumns.size()));
    }
    const auto number = [&](std::size_t i, auto& out) {
      out = parse_field<std::remove_reference_t<decltype(out)>>(
          fields[i], name, line_no, kColumns[i]);
    };
    const auto checked = [&](std::size_t i, const auto& value,
                             std::string_view expected) {
      if (!value) field_error(name, line_no, kColumns[i], fields[i], expected);
      return *value;
    };
    NetflowRecord r;
    r.src_ip = checked(0, parse_ip(fields[0]), "an IPv4 address");
    r.dst_ip = checked(1, parse_ip(fields[1]), "an IPv4 address");
    r.protocol = checked(2, protocol_from_string(fields[2]), "a protocol");
    number(3, r.src_port);
    number(4, r.dst_port);
    number(5, r.first_us);
    number(6, r.last_us);
    number(7, r.out_bytes);
    number(8, r.in_bytes);
    number(9, r.out_pkts);
    number(10, r.in_pkts);
    number(11, r.syn_count);
    number(12, r.ack_count);
    r.state = checked(13, state_from_string(fields[13]), "a connection state");
    records.push_back(r);
  }
  return records;
}

void save_netflow_csv_file(const std::vector<NetflowRecord>& records,
                           const std::string& path) {
  std::ofstream out(path);
  CSB_CHECK_MSG(out.is_open(), "cannot open for writing: " << path);
  save_netflow_csv(records, out);
}

std::vector<NetflowRecord> load_netflow_csv_file(const std::string& path) {
  std::ifstream in(path);
  CSB_CHECK_MSG(in.is_open(), "cannot open for reading: " << path);
  return load_netflow_csv(in, path);
}

}  // namespace csb
