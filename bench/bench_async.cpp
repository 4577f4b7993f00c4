// Completion-driven async benchmark. Two claims from the scheduler
// refactor are measured end to end and emitted as BENCH_async.json:
//
//   * wakeup latency — a process parked on `await` resumes via the
//     completion callback + wake hub, not a per-frame poll. Measured as
//     wall time from the operation's settle to the awaiting process
//     finishing its resumed slice, over many launch/await rounds;
//     acceptance is p99 below one parked frame period — the scheduler's
//     hub-wait bound (ThreadManager::parkedWaitBound), the cadence at
//     which a parked scheduler would re-check anyway with no notify at
//     all. Beating it proves the wake is delivered by the completion
//     callback, not by the wait timing out.
//   * parked frame accounting — frames executed while the only live
//     process was parked must be zero: the scheduler sleeps on the hub,
//     it does not spin (frames_while_parked, totalled over rounds).
//
// Plus the pipelined mapReduce: the chained map→shuffle→reduce engine
// runs J concurrent wordcount jobs through the shared pool with no phase
// barriers; every output must be byte-identical to the sequential
// reference, and the concurrent makespan is compared against running the
// same jobs back-to-back (pipeline_speedup).
//
// Usage: bench_async [--quick] [--out FILE.json]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "blocks/builder.hpp"
#include "blocks/future.hpp"
#include "core/parallel_blocks.hpp"
#include "mapreduce/engine.hpp"
#include "sched/thread_manager.hpp"

namespace {

using namespace psnap::build;
using psnap::blocks::BlockRegistry;
using psnap::blocks::Environment;
using psnap::blocks::FuturePtr;
using psnap::blocks::List;
using psnap::blocks::ListPtr;
using psnap::blocks::Value;
using psnap::sched::ThreadManager;
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = p * double(samples.size() - 1);
  const size_t lo = size_t(rank);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - double(lo);
  return samples[lo] * (1 - frac) + samples[hi] * frac;
}

/// The 26-word vocabulary the wordcount rounds cycle through.
const char* kWords[] = {
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
    "hotel", "india", "juliet", "kilo", "lima", "mike", "november",
    "oscar", "papa", "quebec", "romeo", "sierra", "tango", "uniform",
    "victor", "whiskey", "xray", "yankee", "zulu"};

ListPtr wordList(size_t n) {
  auto list = List::make();
  for (size_t i = 0; i < n; ++i) {
    // Stride by a co-prime so equal words are scattered, not clustered.
    list->add(Value(std::string(kWords[(i * 7) % 26])));
  }
  return list;
}

}  // namespace

int main(int argc, char** argv) {
  size_t wakeupRounds = 300;
  size_t mapItems = 30'000;
  size_t words = 4'000;
  size_t jobs = 8;
  std::string outPath;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      wakeupRounds = 40;
      mapItems = 8'000;
      words = 1'200;
      jobs = 4;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      outPath = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out FILE.json]\n",
                   argv[0]);
      return 2;
    }
  }

  auto prims = psnap::core::fullPrimitiveTable();

  // --- wakeup latency + parked frame accounting --------------------------
  // framePeriodMs is read off the live scheduler once a process is
  // actually parked: the bound every hub wait uses, i.e. how long a wake
  // could take if nothing notified the hub.
  double framePeriodMs = 0;
  std::vector<double> wakeups;
  uint64_t framesWhileParked = 0;
  for (size_t round = 0; round < wakeupRounds; ++round) {
    ThreadManager tm(&BlockRegistry::standard(), &prims);
    auto env = Environment::make();
    env->declare("f", Value());
    env->declare("result", Value());
    tm.spawnScript(
        scriptOf({setVar("f", launchParallelMap(
                                  ring(product(empty(), 3)),
                                  numbersFromTo(1, double(mapItems)), 4)),
                  setVar("result", awaitValue(getVar("f")))}),
        env);
    // Launch and park happen in the process's first slice; f is set by
    // the same slice that parks.
    for (int guard = 0; !env->get("f").isFuture() && guard < 8; ++guard) {
      tm.runFrame();
    }
    if (!env->get("f").isFuture()) {
      std::fprintf(stderr, "round %zu: launch never produced a future\n",
                   round);
      return 1;
    }
    if (round == 0) framePeriodMs = tm.parkedWaitBound() * 1e3;
    std::atomic<Clock::time_point> settledAt{Clock::now()};
    env->get("f").asFuture()->onSettle(
        [&settledAt] { settledAt.store(Clock::now()); });
    const uint64_t executed = tm.runUntilIdle();
    const double wakeup = secondsSince(settledAt.load());
    if (env->get("result").isNothing() ||
        env->get("result").asList()->length() != mapItems) {
      std::fprintf(stderr, "round %zu: wrong map result\n", round);
      return 1;
    }
    wakeups.push_back(wakeup);
    // One frame resumes and finishes the woken process; anything beyond
    // it would be a frame burned while the process was parked.
    framesWhileParked += executed > 1 ? executed - 1 : 0;
  }
  const double wakeupP50 = percentile(wakeups, 0.50) * 1e3;
  const double wakeupP99 = percentile(wakeups, 0.99) * 1e3;

  // --- pipelined mapReduce wordcount -------------------------------------
  auto input = wordList(words);
  psnap::mr::MapFn one = [](const Value&) { return Value(1); };
  psnap::mr::ReduceFn count = [](const ListPtr& values) {
    return Value(values->length());
  };
  const std::string reference =
      psnap::mr::run(input, one, count, {.sequential = true})->display();

  // Back-to-back baseline: the same jobs, one pipeline at a time.
  const auto serialStart = Clock::now();
  bool wordcountOk = true;
  for (size_t j = 0; j < jobs; ++j) {
    auto out = psnap::mr::run(input, one, count, {.workers = 4});
    wordcountOk = wordcountOk && out->display() == reference;
  }
  const double serialSeconds = secondsSince(serialStart);

  // Concurrent: all J chained pipelines in flight at once; stages
  // interleave freely on the shared pool (no phase barriers to align).
  const auto pipeStart = Clock::now();
  std::vector<std::unique_ptr<psnap::mr::Job>> inflight;
  inflight.reserve(jobs);
  for (size_t j = 0; j < jobs; ++j) {
    inflight.push_back(std::make_unique<psnap::mr::Job>(
        input, one, count, psnap::mr::Options{.workers = 4}));
  }
  for (auto& job : inflight) {
    job->wait();
    wordcountOk = wordcountOk && !job->failed() &&
                  job->result()->display() == reference;
  }
  const double pipeSeconds = secondsSince(pipeStart);
  const double speedup = pipeSeconds > 0 ? serialSeconds / pipeSeconds : 0;

  std::printf("# bench_async — completion-driven scheduling\n");
  std::printf("#   parked frame period (hub-wait bound): %.1fms\n",
              framePeriodMs);
  std::printf("#   wakeup latency p50 %.4fms  p99 %.4fms  (%zu rounds)\n",
              wakeupP50, wakeupP99, wakeupRounds);
  std::printf("#   frames while parked (total over rounds): %llu\n",
              static_cast<unsigned long long>(framesWhileParked));
  std::printf("#   wordcount %zu jobs x %zu words: %s\n", jobs, words,
              wordcountOk ? "byte-identical" : "MISMATCH");
  std::printf("#   pipelined %.3fs vs back-to-back %.3fs (speedup %.2fx)\n",
              pipeSeconds, serialSeconds, speedup);

  const bool pass =
      wordcountOk && framesWhileParked == 0 && wakeupP99 < framePeriodMs;
  std::printf("#   acceptance: %s\n", pass ? "PASS" : "FAIL");

  if (!outPath.empty()) {
    FILE* f = std::fopen(outPath.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot open %s\n", outPath.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"bench_async\",\n");
    std::fprintf(f, "  \"wakeup_rounds\": %zu,\n", wakeupRounds);
    std::fprintf(f, "  \"frame_period_ms\": %.4f,\n", framePeriodMs);
    std::fprintf(f, "  \"wakeup_p50_ms\": %.4f,\n", wakeupP50);
    std::fprintf(f, "  \"wakeup_p99_ms\": %.4f,\n", wakeupP99);
    std::fprintf(f, "  \"frames_while_parked\": %llu,\n",
                 static_cast<unsigned long long>(framesWhileParked));
    std::fprintf(f, "  \"wordcount_jobs\": %zu,\n", jobs);
    std::fprintf(f, "  \"wordcount_words\": %zu,\n", words);
    std::fprintf(f, "  \"wordcount_ok\": %s,\n",
                 wordcountOk ? "true" : "false");
    std::fprintf(f, "  \"pipelined_seconds\": %.3f,\n", pipeSeconds);
    std::fprintf(f, "  \"serial_seconds\": %.3f,\n", serialSeconds);
    std::fprintf(f, "  \"pipeline_speedup\": %.2f,\n", speedup);
    std::fprintf(f, "  \"acceptance\": %s\n}\n", pass ? "true" : "false");
    std::fclose(f);
  }
  return pass ? 0 : 1;
}
