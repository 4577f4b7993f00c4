// Tests for the Parallel.js facade: the paper's Listing 1 scenario plus
// distribution strategies, error propagation, and virtual-makespan
// accounting.
#include "workers/parallel.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "blocks/block.hpp"

#include "support/error.hpp"
#include "workers/worker_pool.hpp"

namespace psnap::workers {
namespace {

using blocks::List;
using blocks::Value;

std::vector<Value> numbers(int n) {
  std::vector<Value> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 1; i <= n; ++i) out.emplace_back(i);
  return out;
}

// Paper Listing 1: double [1,2,3,4] with 2 workers.
TEST(Parallel, ListingOneScenario) {
  Parallel p(numbers(4), {.maxWorkers = 2});
  p.map([](const Value& v) { return Value(v.asNumber() + v.asNumber()); });
  const auto& data = p.data();
  ASSERT_EQ(data.size(), 4u);
  EXPECT_EQ(data[0].asNumber(), 2);
  EXPECT_EQ(data[3].asNumber(), 8);
  EXPECT_EQ(p.workerCount(), 2u);
}

TEST(Parallel, DefaultsToFourWorkers) {
  Parallel p(numbers(1), {});
  EXPECT_EQ(p.workerCount(), 4u);  // the paper's default
}

TEST(Parallel, ResolvedFlagFlips) {
  Parallel p(numbers(100), {.maxWorkers = 2});
  EXPECT_FALSE(p.resolved());  // not launched yet
  p.map([](const Value& v) { return Value(v.asNumber() * 10); });
  p.wait();
  EXPECT_TRUE(p.resolved());
  EXPECT_EQ(p.data()[99].asNumber(), 1000);
}

TEST(Parallel, MoreElementsThanWorkersAllProcessed) {
  // "the workers systematically process the remaining elements"
  constexpr int kN = 1000;
  Parallel p(numbers(kN), {.maxWorkers = 3});
  p.map([](const Value& v) { return Value(v.asNumber() + 1); });
  const auto& data = p.data();
  double sum = 0;
  for (const Value& v : data) sum += v.asNumber();
  EXPECT_EQ(sum, kN * (kN + 1) / 2.0 + kN);
  auto per = p.itemsPerWorker();
  EXPECT_EQ(std::accumulate(per.begin(), per.end(), uint64_t{0}),
            uint64_t{kN});
}

TEST(Parallel, ContiguousDistributionCoversAll) {
  Parallel p(numbers(10),
             {.maxWorkers = 4, .distribution = Distribution::Contiguous});
  p.map([](const Value& v) { return Value(-v.asNumber()); });
  const auto& data = p.data();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(data[size_t(i)].asNumber(), -(i + 1));
}

TEST(Parallel, BlockCyclicDistributionCoversAll) {
  Parallel p(numbers(17), {.maxWorkers = 3,
                           .distribution = Distribution::BlockCyclic,
                           .chunkSize = 2});
  p.map([](const Value& v) { return Value(v.asNumber() * 2); });
  const auto& data = p.data();
  ASSERT_EQ(data.size(), 17u);
  for (int i = 0; i < 17; ++i) {
    EXPECT_EQ(data[size_t(i)].asNumber(), 2 * (i + 1));
  }
}

TEST(Parallel, VirtualMakespanIdealBalance) {
  // 12 unit items on 4 workers: any distribution achieves makespan >= 3;
  // contiguous achieves exactly ceil(12/4) = 3.
  Parallel p(numbers(12),
             {.maxWorkers = 4, .distribution = Distribution::Contiguous});
  p.map([](const Value& v) { return v; });
  p.wait();
  EXPECT_EQ(p.virtualMakespan(), 3u);
}

TEST(Parallel, EmptyInputMapYieldsEmpty) {
  Parallel p(std::vector<Value>{}, {.maxWorkers = 2});
  p.map([](const Value& v) { return v; });
  EXPECT_TRUE(p.data().empty());
}

TEST(Parallel, WorkerErrorPropagates) {
  Parallel p(numbers(8), {.maxWorkers = 2});
  p.map([](const Value& v) -> Value {
    if (v.asNumber() == 5) throw Error("boom at five");
    return v;
  });
  p.wait();
  EXPECT_TRUE(p.failed());
  EXPECT_NE(p.errorMessage().find("boom"), std::string::npos);
  EXPECT_THROW(p.data(), Error);
}

TEST(Parallel, WorkerTypeErrorKeepsItsType) {
  // Regression: recordError used to flatten every worker exception into a
  // base-class Error, so a TypeError thrown on a worker lost its type (and
  // its class tag) by the time data() rethrew it.
  Parallel p(numbers(8), {.maxWorkers = 2});
  p.map([](const Value& v) -> Value {
    if (v.asNumber() == 3) throw TypeError("expected a number");
    return v;
  });
  p.wait();
  EXPECT_TRUE(p.failed());
  EXPECT_EQ(p.errorClass(), ErrorClass::Type);
  EXPECT_NE(p.errorMessage().find("expected a number"), std::string::npos);
  EXPECT_THROW(p.data(), TypeError);
}

TEST(Parallel, StructuredCloneIsolatesInput) {
  // Mutating the original list after job creation must not affect the job.
  auto list = List::make({Value(1), Value(2)});
  Parallel p(list, {.maxWorkers = 1});
  list->replaceAt(1, Value(99));
  p.map([](const Value& v) { return v; });
  EXPECT_EQ(p.data()[0].asNumber(), 1);
}

TEST(Parallel, RejectsNonTransferableData) {
  auto expr = blocks::Block::make("reportIdentity",
                                  {blocks::Input::empty()});
  std::vector<Value> data{Value(blocks::Ring::reporter(expr))};
  EXPECT_THROW(Parallel(data, {.maxWorkers = 1}), PurityError);
}

TEST(Parallel, DoubleLaunchThrows) {
  Parallel p(numbers(2), {.maxWorkers = 1});
  p.map([](const Value& v) { return v; });
  EXPECT_THROW(p.map([](const Value& v) { return v; }), Error);
  p.wait();
}

TEST(WorkerPool, RunsSubmittedJobs) {
  WorkerPool pool(3);
  EXPECT_EQ(pool.width(), 3u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  while (pool.jobsCompleted() < 50) {
    std::this_thread::yield();
  }
  EXPECT_EQ(counter.load(), 50);
  auto per = pool.jobsPerWorker();
  EXPECT_EQ(std::accumulate(per.begin(), per.end(), uint64_t{0}),
            uint64_t{50});
}

TEST(WorkerPool, DefaultWidthIsFour) {
  WorkerPool pool;
  EXPECT_EQ(pool.width(), 4u);
}

}  // namespace
}  // namespace psnap::workers
