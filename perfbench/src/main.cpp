// psnap end-to-end benchmark driver.
//
// Usage:
//   psnap_perfbench --workload wordcount|climate|serve --seed N
//                   --seconds S --trace 0|1 --workdir DIR
//                   [--trace-file FILE] [--smoke] [--setup-only]
//
// Runs one workload (set-up, then a timed region of S seconds), checks
// every output against its reference, and prints a human-readable summary
// ("# " lines) followed by one JSON object on the last line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, and the spans are written to --trace-file as a Chrome
// trace-event file. --setup-only stops after set-up and reports setup_s.
// Exit code 0 only when every check passed.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload wordcount|climate|serve "
               "--seed N --seconds S --trace 0|1 --workdir DIR "
               "[--trace-file FILE] [--smoke] [--setup-only]\n",
               argv0);
}

void printMetrics(const std::vector<Metric>& metrics) {
  std::printf("\"metrics\": {");
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}");
}

}  // namespace

int main(int argc, char** argv) {
  const auto processStart = Clock::now();
  // glibc raises its mmap threshold to the size of each freed mmapped
  // block, so whether a job's large buffers are mmapped (and returned on
  // free) or kept in the heap depended on the order of frees: climate's
  // peak RSS read 51 or 74 MB at random. Fixing the threshold at the
  // ceiling the dynamic one climbs to (32 MiB on 64-bit) makes it repeat.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  Options options;
  std::filesystem::path traceFile;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool hasValue = i + 1 < argc;
    if (arg == "--workload" && hasValue) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && hasValue) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && hasValue) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && hasValue) {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--workdir" && hasValue) {
      options.workdir = argv[++i];
    } else if (arg == "--trace-file" && hasValue) {
      traceFile = argv[++i];
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--setup-only") {
      options.setupOnly = true;
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  void (*workload)(Run&) = nullptr;
  if (options.workload == "wordcount") workload = runWordcount;
  if (options.workload == "climate") workload = runClimate;
  if (options.workload == "serve") workload = runServe;
  if (!workload || options.workdir.empty() || options.seconds <= 0) {
    usage(argv[0]);
    return 2;
  }

  Sheet sheet;
  for (const auto& [name, unit] : layerMetricTable()) {
    sheet.perLayer.push_back({name, 0, unit});
  }
  Tracer tracer(options.trace);
  Run run{options, sheet, tracer, processStart};
  try {
    std::filesystem::create_directories(options.workdir);
    workload(run);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: %s\n", options.workload.c_str(),
                 e.what());
    return 1;
  }

  std::printf("# perfbench %s seed=%llu seconds=%g trace=%d%s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              int(options.trace), options.smoke ? " smoke" : "");
  std::printf("# setup_s %.4f  attempted %llu  failed %llu  error_rate %.6f\n",
              run.setupSeconds,
              static_cast<unsigned long long>(sheet.attempted),
              static_cast<unsigned long long>(sheet.failed),
              sheet.attempted ? double(sheet.failed) / double(sheet.attempted)
                              : 0.0);
  for (const std::string& failure : sheet.failures) {
    std::printf("# FAILED: %s\n", failure.c_str());
  }

  std::vector<Metric> metrics;
  if (options.setupOnly) {
    metrics.push_back({"setup_s", run.setupSeconds, "s"});
  } else if (!options.trace) {
    metrics = sheet.endToEnd;
    metrics.push_back({"setup_s", run.setupSeconds, "s"});
    metrics.push_back({"peak_rss_mb", run.setupPeakRssMb, "MB"});
  } else {
    metrics = sheet.perLayer;
    std::printf("# layer self time over all spans (s):\n");
    for (const auto& [layer, seconds] : tracer.layerSelfSeconds()) {
      std::printf("#   %-10s %.4f\n", layer.c_str(), seconds);
    }
    if (!traceFile.empty()) {
      tracer.writeChromeTrace(traceFile);
      std::printf("# trace: %zu spans written to %s\n",
                  tracer.records().size(), traceFile.c_str());
    }
  }
  for (const Metric& m : metrics) {
    std::printf("#   %-32s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  const bool correct = sheet.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
              correct ? "true" : "false",
              static_cast<unsigned long long>(sheet.attempted),
              static_cast<unsigned long long>(sheet.failed));
  printMetrics(metrics);
  std::printf("}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
