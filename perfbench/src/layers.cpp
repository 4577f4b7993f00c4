#include <sched.h>

#include <algorithm>
#include <thread>

#include "codegen/toolchain.hpp"
#include "core/parallel_blocks.hpp"
#include "core/pure_eval.hpp"
#include "core/tiering.hpp"
#include "sched/thread_manager.hpp"
#include "workers/parallel.hpp"
#include "workers/stats.hpp"
#include "workers/worker_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using psnap::blocks::Value;
using psnap::native::TierManager;
using psnap::native::TierStats;

Value evaluate(const psnap::blocks::BlockPtr& program) {
  static const psnap::vm::PrimitiveTable primitives =
      psnap::core::fullPrimitiveTable();
  psnap::sched::ThreadManager tm(&psnap::blocks::BlockRegistry::standard(),
                                 &primitives);
  return tm.evaluate(program, psnap::blocks::Environment::make());
}

double medianSecondsOf(int reps, const std::function<void()>& body) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const auto t = Clock::now();
    body();
    times.push_back(secondsSince(t));
  }
  return median(times);
}

std::vector<Value> probeMapLayers(Run& run,
                                  const psnap::blocks::ListPtr& data,
                                  const psnap::blocks::BlockPtr& ringBlock,
                                  int reps) {
  const psnap::blocks::RingPtr ring = evaluate(ringBlock).asRing();
  const double items = double(data->length());
  {
    const psnap::core::PureFn fn = psnap::core::compileRing(ring);
    std::vector<Value> arg(1);
    size_t numeric = 0;
    const double seconds = medianSecondsOf(reps, [&] {
      Tracer::Span span(run.tracer, "core.pure_eval");
      for (const Value& v : data->items()) {
        arg[0] = v;
        numeric += fn(arg).isNumber() ? 1 : 0;
      }
    });
    run.sheet.check(numeric == size_t(reps) * data->length(),
                    "pure-eval probe produced non-numeric items");
    run.sheet.layer("core.pure_eval_ns_per_item", seconds / items * 1e9);
  }
  const psnap::core::TieredUnary mapper = psnap::core::tieredUnary(ring);
  std::vector<Value> mapped;
  const double seconds = medianSecondsOf(reps, [&] {
    Tracer::Span span(run.tracer, "workers.parallel_map");
    psnap::workers::Parallel job(data, psnap::workers::ParallelOptions{});
    job.map(mapper.fn, mapper.batch);
    job.wait();
    run.sheet.check(!job.failed(), "parallel map probe failed: " +
                                       job.errorMessage());
    mapped = job.takeData();
  });
  run.sheet.layer("workers.parallel_map_s", seconds);
  return mapped;
}

const std::vector<std::pair<std::string, std::string>>& layerMetricTable() {
  static const std::vector<std::pair<std::string, std::string>> table = {
      {"data.ingest_s", "s"},
      {"persist.open_ms", "ms"},
      {"persist.checkpoint_bytes", "bytes"},
      {"native.settle_s", "s"},
      {"native.compiles", "count"},
      {"native.timed_compiles", "count"},
      {"native.promotions", "count"},
      {"native.downgrades", "count"},
      {"native.item_share", "ratio"},
      {"codegen.cache_hits", "count"},
      {"core.pure_eval_ns_per_item", "ns"},
      {"workers.parallel_map_s", "s"},
      {"workers.pool_jobs", "count"},
      {"workers.pool_balance", "ratio"},
      {"workers.retries", "count"},
      {"workers.downgrades", "count"},
      {"workers.cancellations", "count"},
      {"workers.timeouts", "count"},
      {"workers.tasks_skipped", "count"},
      {"mapreduce.run_s", "s"},
      {"mapreduce.map_s", "s"},
      {"mapreduce.shuffle_reduce_s", "s"},
      {"mapreduce.distinct_keys", "count"},
      {"mapreduce.map_makespan", "count"},
      {"mapreduce.reduce_makespan", "count"},
      {"sched.job_s", "s"},
      {"sched.self_s", "s"},
      {"vm.combine_s", "s"},
      {"serve.admit_us_p50", "us"},
      {"serve.admit_us_p99", "us"},
      {"serve.frame_ms_p50", "ms"},
      {"serve.frame_ms_p99", "ms"},
      {"serve.frames", "count"},
      {"serve.frames_per_session", "count"},
      {"serve.session_p99_ms", "ms"},
      {"serve.fairness_spread", "ratio"},
      {"serve.failed", "count"},
      {"serve.shed", "count"},
      {"serve.rejected", "count"},
      {"supervise.checkpoints_written", "count"},
      {"supervise.checkpoints_skipped", "count"},
      {"supervise.checkpoint_failures", "count"},
      {"supervise.write_ratio", "ratio"},
      {"supervise.frame_ms_p99", "ms"},
      {"supervise.drain_ms", "ms"},
      {"supervise.recover_ms", "ms"},
      {"supervise.first_frame_ms", "ms"},
      {"supervise.recovered", "count"},
      {"proc.cpu_util", "ratio"},
      {"trace.overhead_pct", "%"},
  };
  return table;
}

Counters Counters::capture() {
  Counters c;
  c.wall = Clock::now();
  c.cpuSeconds = processCpuSeconds();
  const auto& pool = psnap::workers::WorkerPool::shared();
  c.poolJobs = pool.jobsCompleted();
  c.jobsPerWorker = pool.jobsPerWorker();
  const auto& stats = psnap::workers::processSubstrateStats();
  c.retries = stats.retries.load();
  c.downgrades = stats.downgrades.load();
  c.cancellations = stats.cancellations.load();
  c.timeouts = stats.timeouts.load();
  c.tasksSkipped = stats.tasksSkipped.load();
  c.tier = TierManager::instance().stats();
  return c;
}

void recordRegionCounters(const Counters& before, const Counters& after,
                          double operations, double items, Sheet& sheet) {
  const double ops = std::max(operations, 1.0);
  sheet.layer("workers.pool_jobs",
              double(after.poolJobs - before.poolJobs) / ops);
  double maxJobs = 0, sumJobs = 0;
  for (size_t w = 0; w < after.jobsPerWorker.size(); ++w) {
    const double jobs =
        double(after.jobsPerWorker[w] - before.jobsPerWorker[w]);
    maxJobs = std::max(maxJobs, jobs);
    sumJobs += jobs;
  }
  const size_t poolWidth = after.jobsPerWorker.size();
  const double meanJobs = poolWidth ? sumJobs / double(poolWidth) : 0;
  sheet.layer("workers.pool_balance", meanJobs > 0 ? maxJobs / meanJobs : 0);
  sheet.layer("workers.retries", double(after.retries - before.retries));
  sheet.layer("workers.downgrades",
              double(after.downgrades - before.downgrades));
  sheet.layer("workers.cancellations",
              double(after.cancellations - before.cancellations));
  sheet.layer("workers.timeouts", double(after.timeouts - before.timeouts));
  sheet.layer("workers.tasks_skipped",
              double(after.tasksSkipped - before.tasksSkipped));
  sheet.layer("native.timed_compiles",
              double(after.tier.compiles - before.tier.compiles));
  sheet.layer("native.item_share",
              items > 0 ? double(after.tier.nativeItems -
                                 before.tier.nativeItems) /
                              items
                        : 0);
  // Totals, set-up included: that is where compiles belong.
  sheet.layer("native.compiles", double(after.tier.compiles));
  sheet.layer("native.promotions", double(after.tier.promotions));
  sheet.layer("native.downgrades", double(after.tier.downgrades));
  sheet.layer("codegen.cache_hits",
              double(psnap::codegen::Toolchain::cacheHits()));
  const double wall = secondsBetween(before.wall, after.wall);
  // The CPUs this process may run on (serve pins itself to one).
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  const double cores =
      ::sched_getaffinity(0, sizeof allowed, &allowed) == 0
          ? double(std::max(1, CPU_COUNT(&allowed)))
          : double(std::max(1u, std::thread::hardware_concurrency()));
  const double cpu = after.cpuSeconds - before.cpuSeconds;
  sheet.layer("proc.cpu_util", wall > 0 ? cpu / (wall * cores) : 0);
}

double settleNativeTier(const std::function<void()>& pass) {
  constexpr int kMaxRounds = 64;
  constexpr double kMaxSeconds = 30;
  const auto start = Clock::now();
  auto moving = [](const TierStats& a, const TierStats& b) {
    return a.kernels != b.kernels || a.compiles != b.compiles ||
           a.installs != b.installs || a.promotions != b.promotions ||
           a.downgrades != b.downgrades;
  };
  for (int round = 0; round < kMaxRounds; ++round) {
    TierManager::instance().joinInflightCompiles();
    const TierStats before = TierManager::instance().stats();
    pass();
    TierManager::instance().joinInflightCompiles();
    const TierStats after = TierManager::instance().stats();
    // Settled: every dispatch record reached a final state (trusted or
    // downgraded) and a whole pass changed nothing.
    const bool final = after.promotions + after.downgrades >= after.kernels;
    if ((final && !moving(before, after)) ||
        secondsSince(start) > kMaxSeconds) {
      break;
    }
  }
  return secondsSince(start);
}

}  // namespace perfbench
