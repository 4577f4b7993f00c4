// The three benchmark workloads and the layer counters they share.
//
// Each workload runs set-up (ingest, cold open, native compile and
// settle, warm-up), then a timed region of `seconds`, checking every
// output against a reference computed in a child process from the same
// seed. With tracing off it fills the end-to-end metrics; with tracing on
// it splits the timed region into an untraced and a traced half (their
// throughput ratio is the tracing overhead), then probes each layer
// directly under spans and fills the per-layer metrics.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "blocks/block.hpp"
#include "blocks/value.hpp"
#include "harness.hpp"
#include "native/tier.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;      ///< tiny inputs, for the benchmark's own tests
  bool setupOnly = false;  ///< stop after set-up; report setup_s only
  std::filesystem::path workdir;
};

/// Run-wide context handed to a workload.
struct Run {
  const Options& options;
  Sheet& sheet;
  Tracer& tracer;
  Clock::time_point setupStart;
  double setupSeconds = 0;
  /// Peak RSS when set-up ends: after a fixed amount of work (warm-up
  /// jobs or sessions), so it does not grow with timed-region throughput.
  double setupPeakRssMb = 0;

  /// Called by the workload right before its first timed pass.
  void setupDone() {
    setupSeconds = secondsSince(setupStart);
    setupPeakRssMb = peakRssMb();
  }
};

/// The per-layer metric names, with units, every traced run reports.
/// A layer a workload does not exercise reports 0.
const std::vector<std::pair<std::string, std::string>>& layerMetricTable();

/// Snapshot of the process-wide layer counters (pool, substrate ledger,
/// native tier, codegen cache, CPU time) for deltas over a region.
struct Counters {
  Clock::time_point wall;
  double cpuSeconds = 0;
  uint64_t poolJobs = 0;
  std::vector<uint64_t> jobsPerWorker;
  uint64_t retries = 0;
  uint64_t downgrades = 0;
  uint64_t cancellations = 0;
  uint64_t timeouts = 0;
  uint64_t tasksSkipped = 0;
  psnap::native::TierStats tier;

  static Counters capture();
};

/// Fill the counter-derived per-layer metrics for the region
/// [before, after]: `operations` is the number of jobs or sessions the
/// region completed and `items` the input items they covered.
void recordRegionCounters(const Counters& before, const Counters& after,
                          double operations, double items, Sheet& sheet);

/// Warm the native tier: run `pass` (joining in-flight compiles around
/// it) until every kernel record is final (trusted or downgraded) and a
/// whole pass moves no tier counter, so no compile lands in a timed pass.
/// Bounded by 64 passes or 30 s. Returns the seconds spent.
double settleNativeTier(const std::function<void()>& pass);

/// Evaluate a block program with a fresh scheduler over the full palette
/// (standard blocks plus the paper's parallel blocks).
psnap::blocks::Value evaluate(const psnap::blocks::BlockPtr& program);

/// Median wall seconds of `reps` calls of `body`.
double medianSecondsOf(int reps, const std::function<void()>& body);

/// The shared map-layer probes over `data` with the ring `ringBlock`:
/// core.pure_eval_ns_per_item (the pure interpreter, sequential on this
/// thread) and workers.parallel_map_s (a default-options Parallel map of
/// the tiered function). Returns the mapped items.
std::vector<psnap::blocks::Value> probeMapLayers(
    Run& run, const psnap::blocks::ListPtr& data,
    const psnap::blocks::BlockPtr& ringBlock, int reps);

void runWordcount(Run& run);
void runClimate(Run& run);
void runServe(Run& run);

}  // namespace perfbench
