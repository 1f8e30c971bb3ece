// Binary serialization of SeedProfile: magic + version header, then each
// distribution as (value, probability) pair lists — exact round trip, no
// refitting on load.
#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <ostream>

#include "seed/seed.hpp"
#include "util/byte_reader.hpp"
#include "util/error.hpp"

namespace csb {

namespace {

constexpr char kMagic[4] = {'C', 'S', 'B', 'P'};
constexpr std::uint32_t kVersion = 1;

void write_empirical(std::ostream& out, const EmpiricalDistribution& dist) {
  write_pod(out, static_cast<std::uint64_t>(dist.support_size()));
  for (std::size_t i = 0; i < dist.support_size(); ++i) {
    write_pod(out, dist.values()[i]);
    write_pod(out, dist.probabilities()[i]);
  }
}

EmpiricalDistribution read_empirical(ByteReader& in) {
  const auto n = in.read<std::uint64_t>();
  if (n == 0) in.fail("empty distribution");
  // (value, probability) pairs; read_column checks n against the bytes left.
  const auto rows = in.read_column<std::array<double, 2>>(n);
  std::vector<std::pair<double, double>> weighted;
  weighted.reserve(n);
  for (const auto& [value, prob] : rows) weighted.emplace_back(value, prob);
  try {
    return EmpiricalDistribution::from_weighted(std::move(weighted));
  } catch (const CsbError& error) {
    in.fail(error.what());  // a negative, NaN or all-zero probability
  }
}

void write_conditional(std::ostream& out,
                       const ConditionalDistribution& dist) {
  const auto keys = dist.bucket_keys();
  write_pod(out, static_cast<std::uint64_t>(keys.size()));
  for (const std::uint32_t key : keys) {
    write_pod(out, key);
    write_empirical(out, dist.bucket(key));
  }
  write_empirical(out, dist.marginal());
}

ConditionalDistribution read_conditional(ByteReader& in) {
  const auto buckets = in.read<std::uint64_t>();
  // Each bucket holds at least a key, a size and one (value, prob) pair.
  constexpr std::uint64_t kMinBucketBytes = 4 + 8 + 16;
  if (buckets > 64 || buckets > in.remaining() / kMinBucketBytes) {
    in.fail("implausible bucket count " + std::to_string(buckets));
  }
  std::vector<std::pair<std::uint32_t, EmpiricalDistribution>> parts;
  parts.reserve(buckets);
  for (std::uint64_t i = 0; i < buckets; ++i) {
    const auto key = in.read<std::uint32_t>();
    parts.emplace_back(key, read_empirical(in));
  }
  return ConditionalDistribution::from_parts(std::move(parts),
                                             read_empirical(in));
}

bool empirical_equal(const EmpiricalDistribution& a,
                     const EmpiricalDistribution& b) {
  if (a.values() != b.values()) return false;
  // Probabilities are renormalized on load; allow the round-off of one
  // division (support values themselves stay bit-exact).
  if (a.probabilities().size() != b.probabilities().size()) return false;
  for (std::size_t i = 0; i < a.probabilities().size(); ++i) {
    if (std::abs(a.probabilities()[i] - b.probabilities()[i]) > 1e-12) {
      return false;
    }
  }
  return true;
}

bool conditional_equal(const ConditionalDistribution& a,
                       const ConditionalDistribution& b) {
  if (a.bucket_keys() != b.bucket_keys()) return false;
  for (const std::uint32_t key : a.bucket_keys()) {
    if (!empirical_equal(a.bucket(key), b.bucket(key))) return false;
  }
  return empirical_equal(a.marginal(), b.marginal());
}

}  // namespace

void SeedProfile::save(std::ostream& out) const {
  out.write(kMagic, sizeof kMagic);
  write_pod(out, kVersion);
  write_pod(out, seed_vertices_);
  write_pod(out, seed_edges_);
  write_empirical(out, in_degree_);
  write_empirical(out, out_degree_);
  write_empirical(out, in_bytes_);
  write_conditional(out, protocol_);
  write_conditional(out, src_port_);
  write_conditional(out, dst_port_);
  write_conditional(out, duration_ms_);
  write_conditional(out, out_bytes_);
  write_conditional(out, out_pkts_);
  write_conditional(out, in_pkts_);
  write_conditional(out, state_);
  CSB_CHECK_MSG(out.good(), "failed writing seed profile stream");
}

SeedProfile SeedProfile::load(std::span<const std::uint8_t> bytes,
                              const std::string& name) {
  ByteReader in(bytes, name);
  if (in.remaining() < sizeof kMagic ||
      !std::equal(kMagic, kMagic + sizeof kMagic, bytes.begin())) {
    in.fail("not a csb seed profile (bad magic)");
  }
  in.skip(sizeof kMagic);
  if (in.read<std::uint32_t>() != kVersion) {
    in.fail("unsupported seed profile version");
  }
  SeedProfile profile;
  profile.seed_vertices_ = in.read<std::uint64_t>();
  profile.seed_edges_ = in.read<std::uint64_t>();
  profile.in_degree_ = read_empirical(in);
  profile.out_degree_ = read_empirical(in);
  profile.in_bytes_ = read_empirical(in);
  profile.protocol_ = read_conditional(in);
  profile.src_port_ = read_conditional(in);
  profile.dst_port_ = read_conditional(in);
  profile.duration_ms_ = read_conditional(in);
  profile.out_bytes_ = read_conditional(in);
  profile.out_pkts_ = read_conditional(in);
  profile.in_pkts_ = read_conditional(in);
  profile.state_ = read_conditional(in);
  return profile;
}

void SeedProfile::save_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  CSB_CHECK_MSG(out.is_open(), "cannot open for writing: " << path);
  save(out);
}

SeedProfile SeedProfile::load_file(const std::string& path) {
  return load(read_file(path), path);
}

bool operator==(const SeedProfile& a, const SeedProfile& b) {
  return a.seed_vertices_ == b.seed_vertices_ &&
         a.seed_edges_ == b.seed_edges_ &&
         empirical_equal(a.in_degree_, b.in_degree_) &&
         empirical_equal(a.out_degree_, b.out_degree_) &&
         empirical_equal(a.in_bytes_, b.in_bytes_) &&
         conditional_equal(a.protocol_, b.protocol_) &&
         conditional_equal(a.src_port_, b.src_port_) &&
         conditional_equal(a.dst_port_, b.dst_port_) &&
         conditional_equal(a.duration_ms_, b.duration_ms_) &&
         conditional_equal(a.out_bytes_, b.out_bytes_) &&
         conditional_equal(a.out_pkts_, b.out_pkts_) &&
         conditional_equal(a.in_pkts_, b.in_pkts_) &&
         conditional_equal(a.state_, b.state_);
}

}  // namespace csb
