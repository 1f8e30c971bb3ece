#include "probe.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <fstream>
#include <string>

#include "util/hash.hpp"

namespace perfbench {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double timeval_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return timeval_seconds(usage.ru_utime) + timeval_seconds(usage.ru_stime);
}

bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

std::optional<double> read_peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the line is in kB
    }
  }
  return std::nullopt;
}

Probe::Probe(csb::TraceRecorder* recorder) : recorder_(recorder) {}

Probe::Scope::Scope(Probe& probe, std::string_view name)
    : probe_(probe), name_(name) {
  probe_.fold_peak();
  probe_.rss_ok_ = probe_.rss_ok_ && reset_peak_rss();
  probe_.open_peaks_.push_back(0.0);
  if (probe_.recorder_ != nullptr) span_ = probe_.recorder_->begin_phase(name);
  cpu0_ = process_cpu_seconds();
  t0_ns_ = now_ns();
}

Probe::Scope::~Scope() {
  const double wall = static_cast<double>(now_ns() - t0_ns_) * 1e-9;
  const double cpu = process_cpu_seconds() - cpu0_;
  if (probe_.recorder_ != nullptr) probe_.recorder_->end_phase(span_);
  probe_.fold_peak();
  const double peak = probe_.open_peaks_.back();
  probe_.open_peaks_.pop_back();

  LayerSample& sample = probe_.layers_[name_];
  sample.wall_s += wall;
  sample.cpu_s += cpu;
  ++sample.calls;
  if (probe_.rss_ok_) {
    sample.peak_rss_mib = std::max(sample.peak_rss_mib.value_or(0.0), peak);
  }
  if (probe_.open_peaks_.empty()) probe_.top_level_wall_[name_] += wall;
}

void Probe::fold_peak() {
  if (open_peaks_.empty()) return;
  const double hwm = read_peak_rss_mib().value_or(0.0);
  for (double& peak : open_peaks_) peak = std::max(peak, hwm);
}

double Probe::top_level_wall_s(const std::vector<std::string>& names) const {
  double total = 0.0;
  for (const std::string& name : names) {
    const auto it = top_level_wall_.find(name);
    if (it != top_level_wall_.end()) total += it->second;
  }
  return total;
}

std::optional<double> Probe::peak_rss_mib(
    const std::vector<std::string>& names) const {
  std::optional<double> peak;
  for (const std::string& name : names) {
    const auto it = layers_.find(name);
    if (it == layers_.end() || !it->second.peak_rss_mib) continue;
    peak = std::max(peak.value_or(0.0), *it->second.peak_rss_mib);
  }
  return peak;
}

CountingStore::CountingStore(csb::GraphStore& inner, Probe& probe)
    : inner_(inner), probe_(probe) {}

std::string_view CountingStore::name() const { return inner_.name(); }

void CountingStore::begin(const csb::StoreHeader& header) {
  inner_.begin(header);
}

void CountingStore::put_edges(std::uint64_t first_edge,
                              std::span<const csb::VertexId> src,
                              std::span<const csb::VertexId> dst) {
  const std::int64_t t0 = now_ns();
  inner_.put_edges(first_edge, src, dst);
  edges_ns_.fetch_add(now_ns() - t0, std::memory_order_relaxed);
  bytes_.fetch_add((src.size() + dst.size()) * sizeof(csb::VertexId),
                   std::memory_order_relaxed);
}

void CountingStore::put_properties(std::uint64_t first_edge,
                                   const csb::PropertyRowsView& rows) {
  const std::int64_t t0 = now_ns();
  inner_.put_properties(first_edge, rows);
  props_ns_.fetch_add(now_ns() - t0, std::memory_order_relaxed);
  const std::uint64_t row_bytes =
      sizeof(csb::Protocol) + 2 * sizeof(std::uint16_t) +
      3 * sizeof(std::uint32_t) + 2 * sizeof(std::uint64_t) +
      sizeof(csb::ConnState);
  bytes_.fetch_add(rows.size() * row_bytes, std::memory_order_relaxed);
}

void CountingStore::finish() {
  probe_.layer("store.finish", [&] { inner_.finish(); });
}

double CountingStore::put_edges_busy_s() const {
  return static_cast<double>(edges_ns_.load()) * 1e-9;
}

double CountingStore::put_props_busy_s() const {
  return static_cast<double>(props_ns_.load()) * 1e-9;
}

std::uint64_t CountingStore::bytes_put() const { return bytes_.load(); }

void Tally::expect(bool ok, const std::string& what) {
  attempt();
  if (!ok) fail(what);
}

void Tally::fail(const std::string& what) {
  ++failed_;
  if (messages_.size() < kMaxMessages) messages_.push_back(what);
}

double Tally::failed_frac() const noexcept {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(failed_) /
                               static_cast<double>(attempted_);
}

void Digest::add(std::uint64_t value) {
  state_ = csb::hash_combine(state_, csb::mix64(value));
}

void Digest::add_double(double value) {
  add(std::bit_cast<std::uint64_t>(value));
}

void Digest::add_bytes(std::string_view bytes) {
  add(bytes.size());
  std::uint64_t word = 0;
  std::size_t filled = 0;
  for (const char c : bytes) {
    word = (word << 8) | static_cast<unsigned char>(c);
    if (++filled == 8) {
      add(word);
      word = 0;
      filled = 0;
    }
  }
  if (filled != 0) add(word);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double tail_value(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values.size() >= 11 ? values[values.size() - 11] : values.back();
}

}  // namespace perfbench
