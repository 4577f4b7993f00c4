// MapReduce invariants swept across corpus seeds, sizes, and worker
// widths: counts conserve input size, keys are unique and sorted,
// parallel ≡ sequential, and the block path equals the reference.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "blocks/builder.hpp"
#include "core/parallel_blocks.hpp"
#include "data/corpus.hpp"
#include "mapreduce/engine.hpp"
#include "sched/thread_manager.hpp"

namespace psnap::mr {
namespace {

using namespace psnap::build;
using blocks::BlockRegistry;
using blocks::Environment;
using blocks::List;
using blocks::ListPtr;
using blocks::Value;

ListPtr corpus(size_t words, uint64_t seed) {
  auto list = List::make();
  for (const std::string& w :
       data::tokenize(data::generateText(words, 40, seed))) {
    list->add(Value(w));
  }
  return list;
}

MapFn constOne() {
  return [](const Value&) { return Value(1); };
}
ReduceFn countValues() {
  return [](const ListPtr& values) { return Value(values->length()); };
}

class WordCountProperties
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(WordCountProperties, InvariantsHold) {
  const auto [words, seed, workerCount] = GetParam();
  auto input = corpus(size_t(words), uint64_t(seed));
  auto result = run(input, constOne(), countValues(),
                    {.workers = size_t(workerCount)});

  // 1. Counts conserve the input size.
  double total = 0;
  for (const Value& pair : result->items()) {
    total += pair.asList()->item(2).asNumber();
  }
  EXPECT_EQ(total, double(words));

  // 2. Keys unique and sorted ascending.
  for (size_t i = 2; i <= result->length(); ++i) {
    const std::string prev =
        result->item(i - 1).asList()->item(1).asText();
    const std::string cur = result->item(i).asList()->item(1).asText();
    EXPECT_LT(prev, cur);
  }

  // 3. Parallel equals sequential bit-for-bit.
  auto sequential =
      run(input, constOne(), countValues(), {.sequential = true});
  EXPECT_TRUE(result->deepEquals(*sequential));

  // 4. Equals the plain-C++ reference.
  auto reference =
      data::referenceWordCount(data::generateText(size_t(words), 40,
                                                  uint64_t(seed)));
  ASSERT_EQ(result->length(), reference.size());
  for (const Value& pair : result->items()) {
    const std::string word = pair.asList()->item(1).asText();
    ASSERT_TRUE(reference.count(word)) << word;
    EXPECT_EQ(size_t(pair.asList()->item(2).asNumber()),
              reference.at(word));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WordCountProperties,
    ::testing::Combine(::testing::Values(1, 10, 100, 2000),
                       ::testing::Values(1, 2, 3),
                       ::testing::Values(1, 4)));

// run() against the sequential reference around the single-shard
// threshold (256 items) and at worker widths up to 16.
INSTANTIATE_TEST_SUITE_P(
    ShardThreshold, WordCountProperties,
    ::testing::Combine(::testing::Values(0, 1, 255, 256, 257, 1000),
                       ::testing::Values(5),
                       ::testing::Values(1, 2, 4, 16)));

// The block-level mapReduce agrees with the engine across seeds.
class BlockEnginePairity : public ::testing::TestWithParam<int> {};

TEST_P(BlockEnginePairity, BlockPathMatchesEngine) {
  const uint64_t seed = uint64_t(GetParam());
  const std::string text = data::generateText(300, 40, seed);
  auto prims = core::fullPrimitiveTable();
  sched::ThreadManager tm(&BlockRegistry::standard(), &prims);
  Value viaBlock = tm.evaluate(
      mapReduce(ring(In(1.0)), ring(lengthOf(empty())),
                splitText(text, "whitespace")),
      Environment::make());
  auto viaEngine = run(corpus(300, seed), constOne(), countValues(), {});
  EXPECT_TRUE(viaBlock.asList()->deepEquals(*viaEngine));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlockEnginePairity,
                         ::testing::Range(10, 16));

// Reduce associativity requirement: a sum reduce over numeric groups is
// independent of worker width.
class SumReduceStability : public ::testing::TestWithParam<int> {};

TEST_P(SumReduceStability, WorkerWidthInvariant) {
  const auto workerCount = size_t(GetParam());
  auto input = List::make();
  for (int i = 0; i < 500; ++i) input->add(Value(i % 10));
  MapFn mapper = [](const Value& v) {
    auto pair = List::make();
    pair->add(Value(std::fmod(v.asNumber(), 3.0)));
    pair->add(v);
    return Value(pair);
  };
  ReduceFn summer = [](const ListPtr& values) {
    double sum = 0;
    for (const Value& v : values->items()) sum += v.asNumber();
    return Value(sum);
  };
  auto result = run(input, mapper, summer, {.workers = workerCount});
  auto baseline = run(input, mapper, summer, {.sequential = true});
  EXPECT_TRUE(result->deepEquals(*baseline));
}

INSTANTIATE_TEST_SUITE_P(Widths, SumReduceStability,
                         ::testing::Values(1, 2, 3, 4, 8));

}  // namespace
}  // namespace psnap::mr
