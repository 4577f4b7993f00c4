#include "data/climate.hpp"

#include <algorithm>
#include <cmath>

#include "persist/snapshot.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace psnap::data {

namespace {

constexpr double kPi = 3.14159265358979323846;

/// The one generation loop, shared by the materializing and streaming
/// paths so both draw the identical rng sequence (and therefore produce
/// bit-identical readings). `visit(station, year, month, fahrenheit)` is
/// called once per record in deterministic order.
template <typename Visit>
void forEachTemperature(const ClimateConfig& config, Visit&& visit) {
  if (config.lastYear < config.firstYear) {
    throw Error("generateClimate: lastYear before firstYear");
  }
  Rng rng(config.seed);
  for (size_t s = 0; s < config.stations; ++s) {
    // Station baseline: 35–70 °F annual mean, 10–30 °F seasonal swing.
    const double baseline = rng.uniform(35.0, 70.0);
    const double swing = rng.uniform(10.0, 30.0);
    char id[24];  // "USW" + up to 20 digits of a size_t + NUL
    std::snprintf(id, sizeof(id), "USW%05zu", s + 1);
    for (int year = config.firstYear; year <= config.lastYear; ++year) {
      const double drift = config.warmingPerDecadeF *
                           (year - config.firstYear) / 10.0;
      for (int month = 1; month <= 12; ++month) {
        const double seasonal =
            swing * std::sin(2.0 * kPi * (month - 4) / 12.0);
        visit(id, year, month,
              baseline + seasonal + drift +
                  rng.normal(0.0, config.noiseStddevF));
      }
    }
  }
}

}  // namespace

uint64_t climateRecordCount(const ClimateConfig& config) {
  if (config.lastYear < config.firstYear) return 0;
  return uint64_t(config.stations) *
         uint64_t(config.lastYear - config.firstYear + 1) * 12;
}

std::vector<TemperatureRecord> generateClimate(const ClimateConfig& config) {
  std::vector<TemperatureRecord> out;
  out.reserve(climateRecordCount(config));
  forEachTemperature(config, [&](const char* id, int year, int month,
                                 double fahrenheit) {
    TemperatureRecord record;
    record.station = id;
    record.year = year;
    record.month = month;
    record.fahrenheit = fahrenheit;
    out.push_back(std::move(record));
  });
  return out;
}

uint64_t writeFahrenheitSnapshot(const std::string& path,
                                 const ClimateConfig& config) {
  persist::DatasetWriter writer(path);
  forEachTemperature(config, [&](const char*, int, int, double fahrenheit) {
    writer.appendNumber(fahrenheit);
  });
  writer.commit();
  return writer.count();
}

double fahrenheitToCelsius(double f) { return (5.0 * (f - 32.0)) / 9.0; }

double referenceMeanCelsius(const std::vector<TemperatureRecord>& records) {
  if (records.empty()) throw Error("referenceMeanCelsius: no records");
  double sum = 0;
  for (const TemperatureRecord& record : records) {
    sum += fahrenheitToCelsius(record.fahrenheit);
  }
  return sum / static_cast<double>(records.size());
}

std::vector<std::pair<int, double>> referenceYearlyMeanCelsius(
    const std::vector<TemperatureRecord>& records) {
  std::vector<std::pair<int, double>> out;
  std::vector<std::pair<int, std::pair<double, size_t>>> sums;
  for (const TemperatureRecord& record : records) {
    bool found = false;
    for (auto& [year, acc] : sums) {
      if (year == record.year) {
        acc.first += fahrenheitToCelsius(record.fahrenheit);
        acc.second += 1;
        found = true;
        break;
      }
    }
    if (!found) {
      sums.push_back(
          {record.year, {fahrenheitToCelsius(record.fahrenheit), 1}});
    }
  }
  out.reserve(sums.size());
  for (const auto& [year, acc] : sums) {
    out.push_back({year, acc.first / static_cast<double>(acc.second)});
  }
  std::sort(out.begin(), out.end());
  return out;
}

blocks::ListPtr toFahrenheitList(
    const std::vector<TemperatureRecord>& records) {
  auto list = blocks::List::make();
  list->reserve(records.size());
  for (const TemperatureRecord& record : records) {
    list->add(blocks::Value(record.fahrenheit));
  }
  return list;
}

std::string toKvpText(const std::vector<TemperatureRecord>& records,
                      const std::string& keyOverride) {
  std::string out;
  // "USW00001 -12.345678901234\n" ≈ 26 bytes; reserve once and append
  // pieces in place instead of building a temporary line per record.
  out.reserve(records.size() * 28);
  for (const TemperatureRecord& record : records) {
    out.append(keyOverride.empty() ? record.station : keyOverride);
    out.push_back(' ');
    out.append(strings::formatNumber(record.fahrenheit));
    out.push_back('\n');
  }
  return out;
}

}  // namespace psnap::data
