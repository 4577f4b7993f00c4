// Property sweep: for every (list size × worker count × distribution ×
// function), the parallelMap block reports exactly what the sequential
// map block reports — the fundamental correctness contract of the
// paper's contribution.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "blocks/builder.hpp"
#include "core/parallel_blocks.hpp"
#include "core/pure_eval.hpp"
#include "sched/thread_manager.hpp"
#include "support/rng.hpp"
#include "tests/properties/generators.hpp"
#include "workers/parallel.hpp"

namespace psnap::core {
namespace {

using namespace psnap::build;
using blocks::BlockRegistry;
using blocks::Environment;
using blocks::Value;

// ---------------------------------------------------------------------------
// Block-level equivalence over (size × workers).
// ---------------------------------------------------------------------------
class ParallelMapEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ParallelMapEquivalence, MatchesSequentialMap) {
  const auto [size, workerCount] = GetParam();
  auto prims = fullPrimitiveTable();
  sched::ThreadManager tm(&BlockRegistry::standard(), &prims);
  auto fn = ring(sum(product(empty(), empty()), 1));  // x*x + 1
  Value par = tm.evaluate(
      parallelMap(fn, numbersFromTo(1, size), In(double(workerCount))),
      Environment::make());
  sched::ThreadManager tm2(&BlockRegistry::standard(), &prims);
  Value seq = tm2.evaluate(mapOver(fn, numbersFromTo(1, size)),
                           Environment::make());
  EXPECT_TRUE(par.equals(seq))
      << "size=" << size << " workers=" << workerCount;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelMapEquivalence,
    ::testing::Combine(::testing::Values(0, 1, 3, 17, 100, 1000),
                       ::testing::Values(1, 2, 3, 4, 8)));

// ---------------------------------------------------------------------------
// Facade-level equivalence over distribution strategies.
// ---------------------------------------------------------------------------
class DistributionEquivalence
    : public ::testing::TestWithParam<
          std::tuple<workers::Distribution, int, int>> {};

TEST_P(DistributionEquivalence, AllStrategiesProduceSameResult) {
  const auto [distribution, size, chunk] = GetParam();
  std::vector<Value> input;
  for (int i = 1; i <= size; ++i) input.emplace_back(double(i));
  workers::Parallel job(input, {.maxWorkers = 3,
                                .distribution = distribution,
                                .chunkSize = size_t(chunk)});
  job.map([](const Value& v) {
    return Value(v.asNumber() * 2 - 1);
  });
  const auto& out = job.data();
  ASSERT_EQ(out.size(), size_t(size));
  for (int i = 0; i < size; ++i) {
    EXPECT_EQ(out[size_t(i)].asNumber(), 2.0 * (i + 1) - 1) << i;
  }
  // Conservation: every item processed exactly once.
  uint64_t total = 0;
  for (uint64_t c : job.itemsPerWorker()) total += c;
  EXPECT_EQ(total, uint64_t(size));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DistributionEquivalence,
    ::testing::Combine(
        ::testing::Values(workers::Distribution::Dynamic,
                          workers::Distribution::Contiguous,
                          workers::Distribution::BlockCyclic),
        ::testing::Values(1, 7, 64, 257),
        ::testing::Values(1, 3, 16)));

// ---------------------------------------------------------------------------
// The default grain (adaptiveGrain) as a pure schedule: claims partition
// the input, the tail claims single items, and the claim count stays
// O(workers·log n + n/kMaxGrain).
// ---------------------------------------------------------------------------

/// Claim sizes in order, as the Dynamic cursor hands them out. The
/// sequence is deterministic: each claim sizes itself from what is left.
std::vector<size_t> grainSchedule(size_t n, size_t workers) {
  std::vector<size_t> claims;
  for (size_t left = n; left > 0;) {
    claims.push_back(workers::adaptiveGrain(left, workers));
    if (claims.back() > left) break;  // the caller's assertion catches it
    left -= claims.back();
  }
  return claims;
}

double claimBound(size_t n, size_t workers) {
  return double(n) / double(workers::kMaxGrain) +
         2.0 * double(workers) * (std::log(double(n) + 1) + 1) + 1;
}

TEST(AdaptiveGrain, ScheduleCoversInputAndEndsWithSingleItems) {
  for (size_t workers : {1, 2, 3, 4, 16, 64}) {
    for (size_t n : {1, 2, 7, 100, 4095, 4096, 100003, 1000000, 10000000}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " workers=" + std::to_string(workers));
      const std::vector<size_t> claims = grainSchedule(n, workers);
      size_t total = 0;
      for (size_t c : claims) {
        EXPECT_GE(c, 1u);
        EXPECT_LE(c, workers::kMaxGrain);
        total += c;
      }
      EXPECT_EQ(total, n);
      EXPECT_EQ(claims.back(), 1u);
      // Non-increasing: chunks only shrink as the input drains.
      EXPECT_TRUE(std::is_sorted(claims.rbegin(), claims.rend()));
      EXPECT_LE(double(claims.size()), claimBound(n, workers));
    }
  }
  EXPECT_EQ(workers::adaptiveGrain(1000000, 4), workers::kMaxGrain);
  EXPECT_EQ(workers::adaptiveGrain(80, 4), 10u);
  EXPECT_EQ(workers::adaptiveGrain(3, 4), 1u);
  EXPECT_EQ(workers::adaptiveGrain(0, 4), 1u);
}

// ---------------------------------------------------------------------------
// Default options over n × workers: byte-identical to a sequential map,
// every item counted once, and exactly one batch call per scheduled claim.
// ---------------------------------------------------------------------------
class DefaultGrainEquivalence
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(DefaultGrainEquivalence, MatchesSequentialMap) {
  const auto [size, workerCount] = GetParam();
  std::vector<Value> input;
  input.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    // Mixed kinds, so the comparison covers more than doubles.
    input.push_back(i % 5 == 0 ? Value(std::to_string(i)) : Value(double(i)));
  }
  auto fn = [](const Value& v) {
    return v.isText() ? Value(v.asText() + "!") : Value(v.asNumber() * 3 - 1);
  };
  std::vector<Value> expected;
  expected.reserve(size);
  for (const Value& v : input) expected.push_back(fn(v));

  std::atomic<size_t> batchCalls{0};
  workers::Parallel job(input, {.maxWorkers = workerCount});
  job.map(fn, [&](Value*, size_t) {
    batchCalls.fetch_add(1);
    return false;  // decline: the per-item loop maps the chunk
  });
  const auto& out = job.data();
  ASSERT_EQ(out.size(), size);
  for (size_t i = 0; i < size; ++i) {
    ASSERT_TRUE(out[i].equals(expected[i])) << i;
  }
  EXPECT_EQ(blocks::List::make(std::vector<Value>(out))->display(),
            blocks::List::make(std::move(expected))->display());
  uint64_t total = 0;
  for (uint64_t c : job.itemsPerWorker()) total += c;
  EXPECT_EQ(total, uint64_t(size));
  EXPECT_EQ(batchCalls.load(), grainSchedule(size, workerCount).size());
  EXPECT_LE(double(batchCalls.load()), claimBound(size, workerCount));
}

std::vector<std::tuple<size_t, size_t>> defaultGrainCases() {
  std::vector<std::tuple<size_t, size_t>> cases;
  for (size_t w : {1, 2, 4, 16}) {
    for (size_t n : {size_t(0), size_t(1), w - 1, w, w + 1, size_t(1000),
                     size_t(100003)}) {
      cases.emplace_back(n, w);
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, DefaultGrainEquivalence,
                         ::testing::ValuesIn(defaultGrainCases()));

// ---------------------------------------------------------------------------
// Random pure rings: compiled worker function ≡ interpreter, across seeds.
// ---------------------------------------------------------------------------
class RandomRingEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(RandomRingEquivalence, CompiledPureFnMatchesInterpreter) {
  Rng rng{uint64_t(GetParam())};
  auto prims = fullPrimitiveTable();
  for (int trial = 0; trial < 10; ++trial) {
    auto expr = testgen::randomArithmetic(rng, 3);
    auto reify = ring(In(expr));

    sched::ThreadManager tm(&BlockRegistry::standard(), &prims);
    auto ringValue =
        tm.evaluate(reify, Environment::make()).asRing();
    auto compiled = compileUnary(ringValue);

    for (double x : {-3.0, 0.0, 1.0, 2.5, 10.0}) {
      sched::ThreadManager tm2(&BlockRegistry::standard(), &prims);
      Value viaInterpreter = tm2.evaluate(
          callRing(ring(In(expr)), {In(x)}), Environment::make());
      Value viaWorkerFn = compiled(Value(x));
      EXPECT_TRUE(viaWorkerFn.equals(viaInterpreter))
          << "seed=" << GetParam() << " trial=" << trial << " x=" << x
          << " expr=" << expr->display();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomRingEquivalence,
                         ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// parallelForEach: sequential and parallel modes converge to the same
// final state for commutative bodies, across sizes and parallelism caps.
// ---------------------------------------------------------------------------
class ForEachEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ForEachEquivalence, ModesAgreeOnCommutativeBody) {
  const auto [size, parallelism] = GetParam();
  auto prims = fullPrimitiveTable();
  auto runMode = [&](In mode) {
    sched::ThreadManager tm(&BlockRegistry::standard(), &prims);
    auto env = Environment::make();
    env->declare("total", Value(0));
    auto handle = tm.spawnScript(
        scriptOf({parallelForEach(
            "item", numbersFromTo(1, size), std::move(mode),
            scriptOf({changeVar("total", getVar("item"))}))}),
        env);
    tm.runUntilIdle();
    EXPECT_FALSE(handle.status->errored) << handle.status->error;
    return env->get("total").asNumber();
  };
  double seq = runMode(collapsed());
  double par = runMode(In(double(parallelism)));
  double expected = double(size) * (size + 1) / 2.0;
  EXPECT_EQ(seq, expected);
  EXPECT_EQ(par, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ForEachEquivalence,
    ::testing::Combine(::testing::Values(1, 2, 5, 12, 30),
                       ::testing::Values(1, 2, 3, 8)));

}  // namespace
}  // namespace psnap::core
