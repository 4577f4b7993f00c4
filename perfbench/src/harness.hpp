// Shared plumbing for the end-to-end benchmark: clocks and percentiles,
// the metric sheet a run prints, the in-memory span recorder behind the
// traced run, and a fork helper that computes reference outputs in a
// child process so the checker's memory never counts in the measured
// process's peak RSS.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated percentile (p in [0, 1]); 0 for no samples.
double percentile(std::vector<double> samples, double p);
inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

/// One named metric with its unit, in print order.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything a run reports. `endToEnd` is printed when tracing is off,
/// `perLayer` when it is on; the outcome ledger is printed either way.
struct Sheet {
  std::vector<Metric> endToEnd;
  std::vector<Metric> perLayer;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few mismatch descriptions

  void e2e(const std::string& name, double value, const std::string& unit) {
    endToEnd.push_back({name, value, unit});
  }
  /// Set a per-layer metric; `perLayer` is pre-filled with every name
  /// (value 0), so an unknown name is a programming error and throws.
  void layer(const std::string& name, double value);
  double layerValue(const std::string& name) const;
  /// Record one checked operation; a failed one keeps its description.
  void check(bool ok, const std::string& what);
};

/// In-memory span recorder (single-threaded: spans are opened only by the
/// benchmark driver around its calls into each layer). Disabled, a span
/// costs one branch.
class Tracer {
 public:
  struct Record {
    std::string name;
    int64_t startNs = 0;
    int64_t endNs = 0;
    int parent = -1;     ///< index of the enclosing span, -1 at top level
    uint64_t id = 0;     ///< job / session id the span belongs to
  };

  class Span {
   public:
    Span(Tracer& tracer, std::string name, uint64_t id = 0);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& tracer_;
    int index_ = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  /// Turn recording on or off for spans opened from now on.
  void setEnabled(bool enabled) { enabled_ = enabled; }
  const std::vector<Record>& records() const { return records_; }

  /// Self seconds per layer (the span-name prefix before the first '.'):
  /// each span's duration minus the time its child spans cover.
  std::vector<std::pair<std::string, double>> layerSelfSeconds() const;

  /// Write every span as a Chrome trace-event file ("X" events, µs).
  void writeChromeTrace(const std::filesystem::path& path) const;

 private:
  int64_t nowNs() const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Record> records_;
  std::vector<int> open_;  // stack of open span indices
};

/// Run `compute` in a forked child (native tier off) and return the
/// string it produced.
/// Call only while the process has a single thread (before the worker
/// pool exists). Throws std::runtime_error when the child fails.
std::string computeInChild(const std::function<std::string()>& compute);

/// Process CPU seconds (user + system) so far.
double processCpuSeconds();
/// Peak resident set size of this process, in MiB.
double peakRssMb();

}  // namespace perfbench
