// The two batch workloads: the Fig. 11 word count and the Sec. 3.4
// climate mean, each a whole block program evaluated by a fresh
// sched::ThreadManager per job over a dataset written by the data layer
// and opened through the persist catalog.
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <unistd.h>
#include <unordered_map>

#include "blocks/builder.hpp"
#include "core/tiering.hpp"
#include "data/climate.hpp"
#include "data/corpus.hpp"
#include "mapreduce/engine.hpp"
#include "persist/catalog.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace psnap::build;
using psnap::blocks::BlockPtr;
using psnap::blocks::List;
using psnap::blocks::ListPtr;
using psnap::blocks::Value;

constexpr size_t kMinTimedJobs = 5;

/// One batch workload: how to ingest its dataset, the block program a job
/// evaluates, the check of a job's output, and its map ring for probes.
struct BatchWorkload {
  size_t items = 0;
  std::function<void(const std::string& path)> ingest;
  std::function<BlockPtr(const ListPtr& data)> program;
  std::function<void(const Value& out, Sheet& sheet)> check;
  BlockPtr mapRing;
  /// Layer probes beyond the shared map probes (traced run only);
  /// `mapped` is the map probe's output.
  std::function<void(Run& run, const ListPtr& data,
                     const std::vector<Value>& mapped, int reps)>
      probeLayers;
};

/// Evaluate `job` repeatedly for at least `seconds` (and kMinTimedJobs
/// jobs), checking each output; returns the per-job seconds.
std::vector<double> timedJobs(Run& run, const BatchWorkload& w,
                              const ListPtr& data, double seconds) {
  std::vector<double> times;
  const auto start = Clock::now();
  while (times.size() < kMinTimedJobs || secondsSince(start) < seconds) {
    Value out;
    const auto t = Clock::now();
    {
      Tracer::Span span(run.tracer, "sched.job", times.size());
      out = evaluate(w.program(data));
    }
    times.push_back(secondsSince(t));
    w.check(out, run.sheet);
  }
  return times;
}

void runBatch(Run& run, BatchWorkload& w, const std::string& name) {
  Sheet& sheet = run.sheet;
  Tracer& tracer = run.tracer;
  const std::string path =
      (run.options.workdir / (name + "-" + std::to_string(run.options.seed) +
                              "-" + std::to_string(::getpid()) + ".snap"))
          .string();
  ListPtr data;
  {
    Tracer::Span setup(tracer, "bench.setup");
    auto t = Clock::now();
    {
      Tracer::Span span(tracer, "data.ingest");
      w.ingest(path);
    }
    sheet.layer("data.ingest_s", secondsSince(t));
    t = Clock::now();
    {
      Tracer::Span span(tracer, "persist.open");
      data = psnap::persist::openSharedList(path);
    }
    sheet.layer("persist.open_ms", secondsSince(t) * 1e3);
    {
      // The first full pass pages the whole mapping in.
      Tracer::Span span(tracer, "persist.first_pass");
      size_t touched = 0;
      for (const Value& v : data->items()) touched += v.isNothing() ? 0 : 1;
      sheet.check(touched == w.items,
                  "dataset holds " + std::to_string(touched) +
                      " items, expected " + std::to_string(w.items));
    }
    {
      Tracer::Span span(tracer, "native.settle");
      w.check(evaluate(w.program(data)), sheet);  // warm-up, cold tier
      sheet.layer("native.settle_s", settleNativeTier([&] {
        w.check(evaluate(w.program(data)), sheet);
      }));
    }
  }
  run.setupDone();

  const double items = double(w.items);
  if (run.options.setupOnly) {
    // Set-up is all this run measures.
  } else if (!run.options.trace) {
    const std::vector<double> times =
        timedJobs(run, w, data, run.options.seconds);
    std::printf("# job ms over %zu jobs: q1 %.1f median %.1f q3 %.1f\n",
                times.size(), percentile(times, 0.25) * 1e3,
                median(times) * 1e3, percentile(times, 0.75) * 1e3);
    sheet.e2e("items_per_s", items / median(times), "1/s");
    sheet.e2e("latency_p50_ms", median(times) * 1e3, "ms");
    sheet.e2e("latency_p90_ms", percentile(times, 0.9) * 1e3, "ms");
  } else {
    // Untraced half, then traced half: their throughput ratio is the
    // tracing overhead. Counters cover both halves.
    const Counters before = Counters::capture();
    tracer.setEnabled(false);
    const std::vector<double> untraced =
        timedJobs(run, w, data, run.options.seconds / 2);
    tracer.setEnabled(true);
    std::vector<double> traced;
    {
      Tracer::Span span(tracer, "bench.traced");
      traced = timedJobs(run, w, data, run.options.seconds / 2);
    }
    const Counters after = Counters::capture();
    const double jobs = double(untraced.size() + traced.size());
    recordRegionCounters(before, after, jobs, jobs * items, sheet);
    sheet.layer("trace.overhead_pct",
                (median(traced) / median(untraced) - 1.0) * 100.0);
    sheet.layer("sched.job_s", median(traced));

    Tracer::Span probes(tracer, "bench.probes");
    const int reps = run.options.smoke ? 1 : 3;
    const std::vector<Value> mapped =
        probeMapLayers(run, data, w.mapRing, reps);
    w.probeLayers(run, data, mapped, reps);
  }
  psnap::persist::releaseSharedOpen(path);
  data.reset();
  ::unlink(path.c_str());
}

}  // namespace

void runWordcount(Run& run) {
  const bool smoke = run.options.smoke;
  const size_t words = smoke ? 4'000 : 300'000;
  const size_t vocabulary = smoke ? 300 : 2'000;
  const uint64_t seed = run.options.seed;

  std::unordered_map<std::string, size_t> reference;
  if (!run.options.setupOnly) {
    std::istringstream in(computeInChild([&] {
      std::string out;
      for (const auto& [word, count] : psnap::data::referenceWordCount(
               psnap::data::generateText(words, vocabulary, seed))) {
        out += word + "\t" + std::to_string(count) + "\n";
      }
      return out;
    }));
    std::string word;
    size_t count = 0;
    while (in >> word >> count) reference[word] = count;
    run.setupStart = Clock::now();
  }

  auto checkCounts = [&reference](const Value& out, Sheet& sheet) {
    if (reference.empty()) return;  // set-up only: no reference computed
    if (!out.isList() || out.asList()->length() != reference.size()) {
      sheet.check(false, "word count: wrong number of distinct words");
      return;
    }
    for (const Value& pair : out.asList()->items()) {
      const auto it = reference.find(pair.asList()->item(1).asText());
      if (it == reference.end() ||
          double(it->second) != pair.asList()->item(2).asNumber()) {
        sheet.check(false, "word count differs from the reference at '" +
                               pair.asList()->item(1).asText() + "'");
        return;
      }
    }
    sheet.check(true, "");
  };

  BatchWorkload w;
  w.items = words;
  w.ingest = [=](const std::string& path) {
    psnap::data::writeWordsSnapshot(path, words, vocabulary, seed);
  };
  w.program = [](const ListPtr& data) {
    return mapReduce(ring(In(1.0)), ring(lengthOf(empty())),
                     In(Value(data)));
  };
  w.check = checkCounts;
  w.mapRing = ring(In(1.0));
  w.probeLayers = [&](Run& r, const ListPtr& data, const std::vector<Value>&,
                      int reps) {
    const auto mapper = psnap::core::tieredUnary(evaluate(w.mapRing).asRing());
    const auto reducer = psnap::core::tieredListReduce(
        evaluate(ring(lengthOf(empty()))).asRing());
    psnap::mr::Options options;
    options.mapBatch = mapper.batch;
    psnap::mr::Stats stats;
    const double runSeconds = medianSecondsOf(reps, [&] {
      Value out;
      {
        Tracer::Span span(r.tracer, "mapreduce.run");
        out = Value(psnap::mr::run(data, mapper.fn, reducer, options, &stats));
      }
      checkCounts(out, r.sheet);
    });
    // The map phase is a Parallel map of the same mapper over the same
    // input: the workers.parallel_map probe measured exactly that.
    const double mapSeconds = r.sheet.layerValue("workers.parallel_map_s");
    r.sheet.layer("mapreduce.run_s", runSeconds);
    r.sheet.layer("mapreduce.map_s", mapSeconds);
    r.sheet.layer("mapreduce.shuffle_reduce_s", runSeconds - mapSeconds);
    r.sheet.layer("mapreduce.distinct_keys", double(stats.distinctKeys));
    r.sheet.layer("mapreduce.map_makespan", double(stats.mapMakespan));
    r.sheet.layer("mapreduce.reduce_makespan", double(stats.reduceMakespan));
    r.sheet.layer("sched.self_s",
                  r.sheet.layerValue("sched.job_s") - runSeconds);
  };
  runBatch(run, w, "wordcount");
}

void runClimate(Run& run) {
  psnap::data::ClimateConfig config;
  // 1263 stations x 66 years x 12 months = 1,000,296 readings.
  config.stations = run.options.smoke ? 4 : 1263;
  config.seed = run.options.seed;

  double reference = 0;
  if (!run.options.setupOnly) {
    reference = std::strtod(computeInChild([&] {
                              char buf[64];
                              std::snprintf(buf, sizeof(buf), "%.17g",
                                            psnap::data::referenceMeanCelsius(
                                                psnap::data::generateClimate(
                                                    config)));
                              return std::string(buf);
                            }).c_str(),
                            nullptr);
    run.setupStart = Clock::now();
  }
  const bool haveReference = !run.options.setupOnly;

  BatchWorkload w;
  w.items = size_t(psnap::data::climateRecordCount(config));
  w.ingest = [config](const std::string& path) {
    psnap::data::writeFahrenheitSnapshot(path, config);
  };
  const BlockPtr toCelsius =
      ring(quotient(product(5.0, difference(empty(), 32.0)), 9.0));
  w.program = [toCelsius](const ListPtr& data) {
    return quotient(combineUsing(parallelMap(toCelsius, In(Value(data))),
                                 ring(sum(empty(), empty()))),
                    lengthOf(In(Value(data))));
  };
  w.check = [=](const Value& out, Sheet& sheet) {
    if (!haveReference) return;
    const bool ok = out.isNumber() && out.asNumber() == reference;
    char what[160];
    std::snprintf(what, sizeof(what),
                  "climate mean %.17g differs from the reference %.17g",
                  out.isNumber() ? out.asNumber() : NAN, reference);
    sheet.check(ok, what);
  };
  w.mapRing = toCelsius;
  w.probeLayers = [](Run& r, const ListPtr&, const std::vector<Value>& mapped,
                     int reps) {
    // The interpreted combine alone, over the converted readings.
    const ListPtr celsius = List::make(mapped);
    const double combineSeconds = medianSecondsOf(reps, [&] {
      Tracer::Span span(r.tracer, "vm.combine");
      evaluate(combineUsing(In(Value(celsius)), ring(sum(empty(), empty()))));
    });
    r.sheet.layer("vm.combine_s", combineSeconds);
    r.sheet.layer("sched.self_s",
                  r.sheet.layerValue("sched.job_s") -
                      r.sheet.layerValue("workers.parallel_map_s") -
                      combineSeconds);
  };
  runBatch(run, w, "climate");
}

}  // namespace perfbench
