// Measurement primitives of the pipeline benchmark: per-layer wall/CPU/peak
// RSS probes with optional csb.trace.v1 spans, a GraphStore decorator that
// books the store's put traffic, an output digest, and the order statistics
// the reported metrics use.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "store/graph_store.hpp"

namespace perfbench {

/// Resource use of one layer, summed over its calls within one pass.
struct LayerSample {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  /// VmHWM while the layer ran, in MiB. Empty when the high-water mark
  /// could not be reset (no writable /proc/self/clear_refs): a reading taken
  /// without the reset would only repeat an earlier peak.
  std::optional<double> peak_rss_mib;
  std::uint64_t calls = 0;
};

/// Process CPU time (user + system) in seconds.
double process_cpu_seconds();

/// Resets the kernel's peak-RSS mark to the current RSS by writing "5" to
/// /proc/self/clear_refs; false when the write fails.
bool reset_peak_rss();

/// Current VmHWM in MiB; empty when /proc/self/status has no such line.
std::optional<double> read_peak_rss_mib();

/// Times calls into the csb layers from outside. Each layer call gets its
/// wall time, CPU time and peak RSS (VmHWM reset on entry); with a recorder
/// it is also wrapped in a csb.trace.v1 phase span, so spans the library
/// records inside the call become its children. Calls may nest; a nested
/// call's peak is folded into every enclosing call. Single-threaded: call
/// from the benchmark's main thread only.
class Probe {
 public:
  explicit Probe(csb::TraceRecorder* recorder = nullptr);

  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  /// Runs `fn` as one call of layer `name` and returns its result.
  template <class F>
  decltype(auto) layer(std::string_view name, F&& fn) {
    const Scope scope(*this, name);
    return std::forward<F>(fn)();
  }

  [[nodiscard]] const std::map<std::string, LayerSample>& layers() const {
    return layers_;
  }
  /// Wall time of the calls made at nesting depth 0, by layer.
  [[nodiscard]] double top_level_wall_s(
      const std::vector<std::string>& names) const;
  /// Largest peak RSS among the named layers; empty when none has one.
  [[nodiscard]] std::optional<double> peak_rss_mib(
      const std::vector<std::string>& names) const;

 private:
  class Scope {
   public:
    Scope(Probe& probe, std::string_view name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Probe& probe_;
    std::string name_;
    std::uint64_t span_ = 0;
    double cpu0_ = 0.0;
    std::int64_t t0_ns_ = 0;
  };

  /// Raises the running peak of every open call to the current VmHWM.
  void fold_peak();

  csb::TraceRecorder* recorder_;
  bool rss_ok_ = true;
  std::map<std::string, LayerSample> layers_;
  std::vector<double> open_peaks_;
  std::map<std::string, double> top_level_wall_;
};

/// GraphStore decorator: forwards every call to `inner` and books the busy
/// time and payload bytes of put_edges / put_properties (summed across the
/// calling threads), and times finish() as the `store.finish` layer.
class CountingStore final : public csb::GraphStore {
 public:
  CountingStore(csb::GraphStore& inner, Probe& probe);

  [[nodiscard]] std::string_view name() const override;
  void begin(const csb::StoreHeader& header) override;
  void put_edges(std::uint64_t first_edge,
                 std::span<const csb::VertexId> src,
                 std::span<const csb::VertexId> dst) override;
  void put_properties(std::uint64_t first_edge,
                      const csb::PropertyRowsView& rows) override;
  void finish() override;

  [[nodiscard]] double put_edges_busy_s() const;
  [[nodiscard]] double put_props_busy_s() const;
  [[nodiscard]] std::uint64_t bytes_put() const;

 private:
  csb::GraphStore& inner_;
  Probe& probe_;
  std::atomic<std::int64_t> edges_ns_{0};
  std::atomic<std::int64_t> props_ns_{0};
  std::atomic<std::uint64_t> bytes_{0};
};

/// Failure accounting of a run. Every pass, layer call, query and check is
/// one attempt; a pass or query that throws and a check that does not hold
/// are failures.
class Tally {
 public:
  void attempt(std::uint64_t count = 1) { attempted_ += count; }
  /// One check: an attempt that fails unless `ok`.
  void expect(bool ok, const std::string& what);
  /// Runs `fn` as one attempted operation; a thrown exception is counted
  /// as its failure (with the message) and false is returned.
  template <class F>
  bool guard(const std::string& what, F&& fn) {
    attempt();
    try {
      std::forward<F>(fn)();
      return true;
    } catch (const std::exception& error) {
      fail(what + " threw: " + error.what());
      return false;
    }
  }

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] double failed_frac() const noexcept;
  /// The first kMaxMessages failure messages.
  [[nodiscard]] const std::vector<std::string>& messages() const noexcept {
    return messages_;
  }

  static constexpr std::size_t kMaxMessages = 32;

 private:
  void fail(const std::string& what);

  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

/// Order-sensitive 64-bit digest of a run's outputs.
class Digest {
 public:
  void add(std::uint64_t value);
  void add_double(double value);
  void add_bytes(std::string_view bytes);
  [[nodiscard]] std::uint64_t value() const noexcept { return state_; }

 private:
  std::uint64_t state_ = 0x243f6a8885a308d3ULL;
};

/// Median (mean of the middle two for an even count); 0 for no samples.
double median(std::vector<double> values);

/// Nearest-rank percentile, p in (0, 1]; 0 for no samples.
double percentile(std::vector<double> values, double p);

/// The tail of a latency sample: the highest percentile that still has at
/// least 10 samples beyond it, i.e. the 11th-largest value. With fewer than
/// 11 samples no percentile qualifies and the maximum is returned; 0 for no
/// samples.
double tail_value(std::vector<double> values);

}  // namespace perfbench
