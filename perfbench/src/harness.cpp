#include "harness.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <map>
#include <stdexcept>

namespace perfbench {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = p * double(samples.size() - 1);
  const size_t lo = size_t(rank);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - double(lo);
  return samples[lo] * (1 - frac) + samples[hi] * frac;
}

void Sheet::layer(const std::string& name, double value) {
  for (Metric& metric : perLayer) {
    if (metric.name == name) {
      metric.value = value;
      return;
    }
  }
  throw std::logic_error("unknown per-layer metric " + name);
}

double Sheet::layerValue(const std::string& name) const {
  for (const Metric& metric : perLayer) {
    if (metric.name == name) return metric.value;
  }
  throw std::logic_error("unknown per-layer metric " + name);
}

void Sheet::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

Tracer::Span::Span(Tracer& tracer, std::string name, uint64_t id)
    : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  Record record;
  record.name = std::move(name);
  record.startNs = tracer_.nowNs();
  record.parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
  record.id = id;
  index_ = int(tracer_.records_.size());
  tracer_.records_.push_back(std::move(record));
  tracer_.open_.push_back(index_);
}

Tracer::Span::~Span() {
  if (index_ < 0) return;
  tracer_.records_[size_t(index_)].endNs = tracer_.nowNs();
  tracer_.open_.pop_back();
}

int64_t Tracer::nowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

std::vector<std::pair<std::string, double>> Tracer::layerSelfSeconds() const {
  std::vector<int64_t> childNs(records_.size(), 0);
  for (const Record& record : records_) {
    if (record.parent >= 0) {
      childNs[size_t(record.parent)] += record.endNs - record.startNs;
    }
  }
  std::map<std::string, double> byLayer;
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& record = records_[i];
    const std::string layer = record.name.substr(0, record.name.find('.'));
    byLayer[layer] +=
        double(record.endNs - record.startNs - childNs[i]) * 1e-9;
  }
  return {byLayer.begin(), byLayer.end()};
}

void Tracer::writeChromeTrace(const std::filesystem::path& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw std::runtime_error("cannot write trace file " + path.string());
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    const std::string layer = r.name.substr(0, r.name.find('.'));
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                 "\"args\": {\"id\": %llu, \"parent\": %d}}%s\n",
                 r.name.c_str(), layer.c_str(), double(r.startNs) * 1e-3,
                 double(r.endNs - r.startNs) * 1e-3,
                 static_cast<unsigned long long>(r.id), r.parent,
                 i + 1 < records_.size() ? "," : "");
  }
  std::fprintf(f, "], \"displayTimeUnit\": \"ms\"}\n");
  if (std::fclose(f) != 0) {
    throw std::runtime_error("cannot write trace file " + path.string());
  }
}

std::string computeInChild(const std::function<std::string()>& compute) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    ::close(fds[0]);
    // References come from the interpreter alone, never a native kernel.
    ::setenv("PSNAP_NATIVE_TIER", "0", 1);
    int status = 0;
    try {
      const std::string out = compute();
      size_t written = 0;
      while (written < out.size()) {
        const ssize_t n =
            ::write(fds[1], out.data() + written, out.size() - written);
        if (n <= 0) {
          status = 1;
          break;
        }
        written += size_t(n);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "reference computation failed: %s\n", e.what());
      status = 1;
    }
    ::close(fds[1]);
    std::fflush(nullptr);
    ::_exit(status);
  }
  ::close(fds[1]);
  std::string out;
  char buf[65536];
  while (true) {
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n > 0) {
      out.append(buf, size_t(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("reference child process failed");
  }
  return out;
}

double processCpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         double(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

double peakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

}  // namespace perfbench
