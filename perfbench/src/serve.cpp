// The serve workload over serve::SessionServer: a closed loop of K live
// tenants from serveMixedWorkload, each completion replaced by a fresh
// admission before the next frame, supervision off.
//
// Set-up and the timed closed loop run pinned to one CPU (see OneCpu).
//
// Its traced run also probes the supervise layer with drain/recover
// cycles: a supervised server hosts ticker sessions beside the
// recoverable mix, drains them mid-flight, and a successor recovers them
// to completion; every output must equal an uninterrupted run's. (The
// cycles are fsync-bound, too noisy on shared storage to be an
// end-to-end workload of their own.)
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <sstream>
#include <string>

#include "blocks/builder.hpp"
#include "data/climate.hpp"
#include "scenarios/serve.hpp"
#include "serve/session_server.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using psnap::serve::ServerConfig;
using psnap::serve::SessionRecord;
using psnap::serve::SessionServer;
using psnap::serve::SessionState;
using psnap::serve::SessionWorkload;

/// Set the CPU affinity of every thread of this process; threads and
/// children started later inherit it from their creator.
void setProcessAffinity(const cpu_set_t& cpus) {
  for (const auto& entry : fs::directory_iterator("/proc/self/task")) {
    const pid_t tid = std::stoi(entry.path().filename().string());
    // ESRCH: the thread ended since the listing.
    if (::sched_setaffinity(tid, sizeof cpus, &cpus) != 0 && errno != ESRCH) {
      throw std::runtime_error("sched_setaffinity failed for thread " +
                               entry.path().filename().string());
    }
  }
}

/// Pins the process (the worker pool and native compiles included) to
/// the last CPU it may run on while alive; restores the CPUs it had.
///
/// Serve's sessions are tiny: each frame hands the pool a few short jobs
/// and parks on their completion. Spread over several virtual CPUs, that
/// ping-pong waits mostly on cross-CPU wake-ups, whose cost the host sets
/// (on a shared 4-vCPU VM the unpinned loop ranged 4.1k-8.2k sessions/s
/// over five runs, the pinned one 9.6k-10.9k). On one CPU a wake-up is a
/// local context switch, so the loop measures the server's own work per
/// session; wordcount and climate measure the parallel speed-up.
class OneCpu {
 public:
  OneCpu() {
    CPU_ZERO(&previous_);
    if (::sched_getaffinity(0, sizeof previous_, &previous_) != 0) {
      throw std::runtime_error("sched_getaffinity failed");
    }
    int last = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &previous_)) last = cpu;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(last, &one);
    setProcessAffinity(one);
  }
  ~OneCpu() {
    try {
      setProcessAffinity(previous_);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench serve: %s\n", e.what());
    }
  }
  OneCpu(const OneCpu&) = delete;
  OneCpu& operator=(const OneCpu&) = delete;

 private:
  cpu_set_t previous_;
};

/// Input items a serve-scenario session maps, parsed from its
/// parameter-encoded label ("wordcount:24:7", "climate:1:9").
double sessionItems(const std::string& label) {
  const size_t first = label.find(':');
  if (first == std::string::npos) return 0;
  const std::string kind = label.substr(0, first);
  const double size = std::strtod(label.c_str() + first + 1, nullptr);
  if (kind == "wordcount") return size;
  if (kind == "climate") return 12 * size;
  return 0;
}

std::string kindOf(const std::string& label) {
  return label.substr(0, label.find(':'));
}

/// The F→C ring both serving mixes' climate tenants map, probed over a
/// seed-derived reading list.
void probeServeMapLayers(Run& run) {
  using namespace psnap::build;
  psnap::data::ClimateConfig config;
  config.stations = run.options.smoke ? 1 : 16;
  config.seed = run.options.seed;
  const auto readings =
      psnap::data::toFahrenheitList(psnap::data::generateClimate(config));
  probeMapLayers(run, readings,
                 ring(quotient(product(5.0, difference(empty(), 32.0)), 9.0)),
                 run.options.smoke ? 1 : 3);
}

/// Frames and admissions of one server, timed at frame boundaries.
class ClosedLoop {
 public:
  ClosedLoop(Run& run, size_t tenants, uint64_t firstIndex)
      : run_(run), tenants_(tenants), nextIndex_(firstIndex),
        origin_(Clock::now()) {
    frameEnd_.push_back(0);  // frame 0: the server's start
  }

  SessionServer& server() { return server_; }
  const std::vector<double>& frameEnd() const { return frameEnd_; }
  std::vector<double>& admitSeconds() { return admitSeconds_; }

  /// Refill to K live tenants (unless `admit` is false), then run one
  /// server frame.
  void step(bool admit = true) {
    while (admit && server_.activeSessions() < tenants_) {
      const auto t = Clock::now();
      try {
        Tracer::Span span(run_.tracer, "serve.admit", nextIndex_);
        server_.admit(psnap::scenarios::serveMixedWorkload(nextIndex_++));
      } catch (const std::exception& e) {
        run_.sheet.check(false, std::string("admission: ") + e.what());
        break;
      }
      admitSeconds_.push_back(secondsSince(t));
    }
    {
      Tracer::Span span(run_.tracer, "serve.frame", server_.frameCount() + 1);
      server_.runFrame();
    }
    frameEnd_.push_back(secondsSince(origin_));
  }

  /// Step until `completions` more sessions have completed.
  void runCompletions(uint64_t completions) {
    const uint64_t target = server_.metrics().completed + completions;
    while (server_.metrics().completed < target) step();
  }

 private:
  Run& run_;
  size_t tenants_;
  uint64_t nextIndex_;
  Clock::time_point origin_;
  SessionServer server_{ServerConfig{}};
  std::vector<double> frameEnd_;      // by server frame count
  std::vector<double> admitSeconds_;  // every admission, in order
};

/// Closed-loop completions per second, one sample per window.
std::vector<double> timedWindows(ClosedLoop& loop, double seconds) {
  constexpr double kWindowSeconds = 0.5;
  std::vector<double> rates;
  const auto start = Clock::now();
  auto windowStart = start;
  uint64_t windowCompleted = loop.server().metrics().completed;
  while (secondsSince(start) < seconds) {
    loop.step();
    const double elapsed = secondsSince(windowStart);
    if (elapsed >= kWindowSeconds) {
      const uint64_t completed = loop.server().metrics().completed;
      rates.push_back(double(completed - windowCompleted) / elapsed);
      windowCompleted = completed;
      windowStart = Clock::now();
    }
  }
  return rates;
}

/// The recover workload's population: tickers (incremental, the
/// mid-flight state that matters) interleaved with the recoverable mix.
SessionWorkload recoverWorkloadAt(uint64_t seed, size_t i) {
  if (i % 2 == 0) {
    return psnap::scenarios::serveTickerWorkload(16 + 8 * ((i / 2) % 4));
  }
  return psnap::scenarios::serveMixedRecoverableWorkload((seed << 20) + i / 2);
}

struct CycleResult {
  double drainMs = 0;
  double recoverMs = 0;
  double firstFrameMs = 0;
  double checkpointBytes = 0;
  size_t recovered = 0;
  uint64_t written = 0;
  uint64_t skipped = 0;
  uint64_t failures = 0;
  std::vector<double> frameSeconds;  ///< victim's, then successor's
};

double directoryBytes(const fs::path& dir) {
  double bytes = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += double(entry.file_size());
  }
  return bytes;
}

/// One drain/recover cycle over a fresh checkpoint directory; every
/// session's output is checked against `reference` (by session id).
CycleResult recoverCycle(Run& run, size_t population, uint64_t cycle,
                         const std::map<uint64_t, std::string>& reference) {
  constexpr int kVictimFrames = 8;
  Sheet& sheet = run.sheet;
  Tracer& tracer = run.tracer;
  const fs::path dir = run.options.workdir /
                       ("recover-" + std::to_string(::getpid()) + "-" +
                        std::to_string(cycle));
  ServerConfig config;
  config.checkpointDir = dir.string();
  config.checkpointIntervalFrames = 4;

  CycleResult result;
  std::set<uint64_t> completed;
  auto checkCompleted = [&](const SessionRecord& record, const char* where) {
    const auto it = reference.find(record.id);
    const bool ok = record.outputOk && it != reference.end() &&
                    it->second == record.output;
    sheet.check(ok, std::string("session ") + std::to_string(record.id) +
                        " (" + record.label + ") " + where +
                        " output differs from the uninterrupted run");
    completed.insert(record.id);
  };

  std::set<uint64_t> drained;
  {
    SessionServer victim(config);
    for (size_t i = 0; i < population; ++i) {
      Tracer::Span span(tracer, "serve.admit", i + 1);
      victim.admit(recoverWorkloadAt(run.options.seed, i));
    }
    for (int f = 0; f < kVictimFrames; ++f) {
      Tracer::Span span(tracer, "serve.frame", victim.frameCount() + 1);
      victim.runFrame();
    }
    const auto drainStart = Clock::now();
    {
      Tracer::Span span(tracer, "supervise.drain");
      victim.drain();
    }
    result.drainMs = secondsSince(drainStart) * 1e3;
    for (const SessionRecord& record : victim.records()) {
      if (record.state == SessionState::Completed) {
        checkCompleted(record, "victim");
      } else if (record.state == SessionState::Drained) {
        drained.insert(record.id);
      } else {
        sheet.check(false, "session " + std::to_string(record.id) + " " +
                               psnap::serve::sessionStateName(record.state) +
                               " in the victim: " + record.error);
      }
    }
    const auto& m = victim.metrics();
    result.written += m.checkpointsWritten;
    result.skipped += m.checkpointsSkipped;
    result.failures += m.checkpointFailures;
    result.frameSeconds = victim.frameSeconds();
    result.checkpointBytes = directoryBytes(dir);
  }
  {
    SessionServer successor(config);
    auto t = Clock::now();
    std::vector<uint64_t> ids;
    {
      Tracer::Span span(tracer, "supervise.recover");
      ids = successor.recoverSessions(psnap::scenarios::serveRecoveryFactory);
    }
    result.recoverMs = secondsSince(t) * 1e3;
    t = Clock::now();
    {
      Tracer::Span span(tracer, "supervise.first_frame");
      successor.runFrame();
    }
    result.firstFrameMs = secondsSince(t) * 1e3;
    {
      Tracer::Span span(tracer, "serve.run_until_quiet");
      successor.runUntilQuiet();
    }
    result.recovered = ids.size();
    sheet.check(std::set<uint64_t>(ids.begin(), ids.end()) == drained,
                "recovered sessions differ from the drained ones");
    for (const SessionRecord& record : successor.records()) {
      if (record.state == SessionState::Completed) {
        checkCompleted(record, "successor");
      } else {
        sheet.check(false, "recovered session " + std::to_string(record.id) +
                               " ended " +
                               psnap::serve::sessionStateName(record.state) +
                               ": " + record.error);
      }
    }
    const auto& m = successor.metrics();
    result.written += m.checkpointsWritten;
    result.skipped += m.checkpointsSkipped;
    result.failures += m.checkpointFailures;
    const auto& frames = successor.frameSeconds();
    result.frameSeconds.insert(result.frameSeconds.end(), frames.begin(),
                               frames.end());
  }
  sheet.check(completed.size() == population,
              std::to_string(population - completed.size()) +
                  " sessions never completed across drain and recovery");
  fs::remove_all(dir);
  return result;
}

/// The recover probe's reference: the same population run uninterrupted
/// in a child process, outputs by session id.
std::map<uint64_t, std::string> uninterruptedOutputs(uint64_t seed,
                                                     size_t population,
                                                     Sheet& sheet) {
  std::istringstream in(computeInChild([&] {
    SessionServer server;
    for (size_t i = 0; i < population; ++i) {
      server.admit(recoverWorkloadAt(seed, i));
    }
    server.runUntilQuiet();
    std::string out;
    for (const SessionRecord& record : server.records()) {
      if (record.state != SessionState::Completed || !record.outputOk) {
        throw std::runtime_error("uninterrupted session " +
                                 std::to_string(record.id) + " failed");
      }
      out += std::to_string(record.id) + " " +
             std::to_string(record.output.size()) + "\n" + record.output;
    }
    return out;
  }));
  std::map<uint64_t, std::string> reference;
  uint64_t id = 0;
  size_t size = 0;
  while (in >> id >> size) {
    in.get();  // the newline before the payload
    std::string output(size, '\0');
    in.read(output.data(), std::streamsize(size));
    reference[id] = std::move(output);
  }
  sheet.check(reference.size() == population,
              "the uninterrupted run reported " +
                  std::to_string(reference.size()) + " of " +
                  std::to_string(population) + " sessions");
  return reference;
}

/// The supervise layer: drain/recover cycles for `seconds` (at least five
/// cycles, after one warm-up cycle), each checked against `reference`.
void probeRecover(Run& run, size_t population,
                  const std::map<uint64_t, std::string>& reference,
                  double seconds) {
  constexpr size_t kMinCycles = 5;
  Tracer::Span probe(run.tracer, "bench.recover_probe");
  uint64_t cycle = 0;
  recoverCycle(run, population, cycle++, reference);
  std::vector<CycleResult> results;
  const auto start = Clock::now();
  while (results.size() < kMinCycles || secondsSince(start) < seconds) {
    results.push_back(recoverCycle(run, population, cycle++, reference));
  }
  std::vector<double> drainMs, recoverMs, firstFrameMs, bytes, recovered,
      frameMs;
  double written = 0, skipped = 0, failures = 0;
  for (const CycleResult& r : results) {
    drainMs.push_back(r.drainMs);
    recoverMs.push_back(r.recoverMs);
    firstFrameMs.push_back(r.firstFrameMs);
    bytes.push_back(r.checkpointBytes);
    recovered.push_back(double(r.recovered));
    for (double f : r.frameSeconds) frameMs.push_back(f * 1e3);
    written += double(r.written);
    skipped += double(r.skipped);
    failures += double(r.failures);
  }
  Sheet& sheet = run.sheet;
  sheet.layer("persist.checkpoint_bytes", median(bytes));
  sheet.layer("supervise.checkpoints_written", written);
  sheet.layer("supervise.checkpoints_skipped", skipped);
  sheet.layer("supervise.checkpoint_failures", failures);
  sheet.layer("supervise.write_ratio",
              written + skipped > 0 ? written / (written + skipped) : 0);
  sheet.layer("supervise.frame_ms_p99", percentile(frameMs, 0.99));
  sheet.layer("supervise.drain_ms", median(drainMs));
  sheet.layer("supervise.recover_ms", median(recoverMs));
  sheet.layer("supervise.first_frame_ms", median(firstFrameMs));
  sheet.layer("supervise.recovered", median(recovered));
}

}  // namespace

void runServe(Run& run) {
  Sheet& sheet = run.sheet;
  Tracer& tracer = run.tracer;
  const bool smoke = run.options.smoke;
  const size_t tenants = smoke ? 32 : ServerConfig{}.maxSessions;
  const size_t recoverPopulation = smoke ? 16 : 128;
  // Forked before the worker pool starts: the recover probe's reference.
  std::map<uint64_t, std::string> recoverReference;
  if (run.options.trace && !run.options.setupOnly) {
    recoverReference =
        uninterruptedOutputs(run.options.seed, recoverPopulation, sheet);
    run.setupStart = Clock::now();
  }
  auto pinned = std::make_unique<OneCpu>();
  ClosedLoop loop(run, tenants, run.options.seed << 20);
  SessionServer& server = loop.server();
  {
    // Warm-up serves a fixed number of sessions, so the memory it leaves
    // (finished records included) does not depend on the host's speed.
    const uint64_t warmSessions = smoke ? 400 : 10'000;
    Tracer::Span setup(tracer, "bench.setup");
    loop.runCompletions(warmSessions / 4);
    {
      Tracer::Span span(tracer, "native.settle");
      sheet.layer("native.settle_s", settleNativeTier([&] {
        loop.runCompletions(warmSessions / 10);
      }));
    }
    const uint64_t completed = server.metrics().completed;
    if (completed < warmSessions) {
      loop.runCompletions(warmSessions - completed);
    }
  }
  run.setupDone();
  if (run.options.setupOnly) {
    server.runUntilQuiet();
    return;
  }

  const uint64_t firstFrame = server.frameCount();
  const size_t firstAdmit = loop.admitSeconds().size();
  const uint64_t firstId = firstAdmit + 1;  // ids follow admission order
  const uint64_t completedBefore = server.metrics().completed;
  const Counters before = Counters::capture();
  std::vector<double> rates;
  if (!run.options.trace) {
    rates = timedWindows(loop, run.options.seconds);
  } else {
    tracer.setEnabled(false);
    const std::vector<double> untraced =
        timedWindows(loop, run.options.seconds / 2);
    tracer.setEnabled(true);
    std::vector<double> traced;
    {
      Tracer::Span span(tracer, "bench.traced");
      traced = timedWindows(loop, run.options.seconds / 2);
    }
    sheet.layer("trace.overhead_pct",
                (median(untraced) / median(traced) - 1.0) * 100.0);
    rates = untraced;
    rates.insert(rates.end(), traced.begin(), traced.end());
  }
  const Counters after = Counters::capture();
  const uint64_t endFrame = server.frameCount();
  const uint64_t timedCompleted = server.metrics().completed - completedBefore;
  std::vector<double> timedAdmits(loop.admitSeconds().begin() + firstAdmit,
                                  loop.admitSeconds().end());
  // Let the sessions still live finish (untimed) so every one is checked.
  while (server.activeSessions() > 0) loop.step(false);

  std::vector<double> latencies;
  double frames = 0, items = 0;
  std::map<std::string, std::vector<uint64_t>> slicesByKind;
  const auto& frameEnd = loop.frameEnd();
  for (const SessionRecord& record : server.records()) {
    sheet.check(record.state == SessionState::Completed && record.outputOk,
                "session " + std::to_string(record.id) + " (" + record.label +
                    ") ended " +
                    psnap::serve::sessionStateName(record.state) +
                    (record.outputOk ? "" : " with a wrong output") + " " +
                    record.error);
    if (record.id < firstId || record.finishedAtFrame > endFrame ||
        record.state != SessionState::Completed) {
      continue;
    }
    latencies.push_back(
        (frameEnd[record.finishedAtFrame] - frameEnd[record.admittedAtFrame]) *
        1e3);
    frames += double(record.framesRun);
    items += sessionItems(record.label);
    slicesByKind[kindOf(record.label)].push_back(record.framesRun);
  }
  if (!run.options.trace) {
    std::printf("# sessions/s over %zu windows: q1 %.0f median %.0f q3 %.0f\n",
                rates.size(), percentile(rates, 0.25), median(rates),
                percentile(rates, 0.75));
    sheet.e2e("items_per_s", median(rates), "1/s");
    sheet.e2e("latency_p50_ms", median(latencies), "ms");
    sheet.e2e("latency_p90_ms", percentile(latencies, 0.9), "ms");
    return;
  }

  recordRegionCounters(before, after, double(timedCompleted), items, sheet);
  std::vector<double> frameMs;
  for (uint64_t f = firstFrame; f < endFrame; ++f) {
    frameMs.push_back(server.frameSeconds()[f] * 1e3);
  }
  double fairness = 0;
  for (const auto& [kind, slices] : slicesByKind) {
    fairness = std::max(fairness, SessionServer::fairnessSpread(slices));
  }
  const auto& m = server.metrics();
  for (double& s : timedAdmits) s *= 1e6;
  sheet.layer("serve.admit_us_p50", median(timedAdmits));
  sheet.layer("serve.admit_us_p99", percentile(timedAdmits, 0.99));
  sheet.layer("serve.frame_ms_p50", median(frameMs));
  sheet.layer("serve.frame_ms_p99", percentile(frameMs, 0.99));
  sheet.layer("serve.frames", double(endFrame - firstFrame));
  sheet.layer("serve.frames_per_session",
              latencies.empty() ? 0 : frames / double(latencies.size()));
  sheet.layer("serve.session_p99_ms", percentile(latencies, 0.99));
  sheet.layer("serve.fairness_spread", fairness);
  sheet.layer("serve.failed", double(m.failed));
  sheet.layer("serve.shed", double(m.shed));
  sheet.layer("serve.rejected", double(m.rejected));
  // The probes run on every CPU, as wordcount's and climate's do: the
  // drain/recover cycles' counts repeat exactly for a seed only there.
  pinned.reset();
  Tracer::Span probes(tracer, "bench.probes");
  probeServeMapLayers(run);
  probeRecover(run, recoverPopulation, recoverReference,
               run.options.seconds / 4);
}

}  // namespace perfbench
