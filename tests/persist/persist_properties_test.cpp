// Property suite for zero-copy persistence: randomly generated flat and
// nested lists (and whole projects) survive snapshot→load with deep
// equality and identical display; mmap-backed lists behave exactly like
// their in-memory originals under mutation, structured clone, and
// worker transfer.
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "blocks/value.hpp"
#include "persist/snapshot.hpp"
#include "project/snapshot.hpp"
#include "support/rng.hpp"
#include "tests/properties/generators.hpp"
#include "workers/parallel.hpp"

namespace psnap::persist {
namespace {

using blocks::List;
using blocks::ListPtr;
using blocks::Value;

std::filesystem::path makeDir(const std::string& tag) {
  auto dir = std::filesystem::temp_directory_path() / ("psnap-pprop-" + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

Value randomScalar(Rng& rng) {
  switch (rng.below(6)) {
    case 0:
      return Value();
    case 1:
      return Value(rng.uniform(-1e6, 1e6));
    case 2:
      return Value(rng.below(2) == 0);
    case 3:  // inline text
      return Value("w" + std::to_string(rng.below(1000)));
    case 4: {  // long text (blob-backed on disk)
      std::string text(16 + rng.below(120), '?');
      for (char& ch : text) ch = char('a' + rng.below(26));
      return Value(text);
    }
    default:
      return Value(double(rng.between(-100, 100)));
  }
}

ListPtr randomFlatList(Rng& rng, size_t maxLen) {
  auto list = List::make();
  const size_t n = rng.below(maxLen + 1);
  for (size_t i = 0; i < n; ++i) list->add(randomScalar(rng));
  return list;
}

Value randomTree(Rng& rng, int depth) {
  if (depth <= 0 || rng.below(3) != 0) return randomScalar(rng);
  auto list = List::make();
  const size_t n = rng.below(6);
  for (size_t i = 0; i < n; ++i) list->add(randomTree(rng, depth - 1));
  return Value(list);
}

class PersistProperty : public ::testing::TestWithParam<int> {};

TEST_P(PersistProperty, FlatListsRoundTripExactly) {
  Rng rng{uint64_t(GetParam()) * 101};
  const auto dir = makeDir("flat-" + std::to_string(GetParam()));
  for (int trial = 0; trial < 8; ++trial) {
    const std::string path =
        (dir / ("t" + std::to_string(trial) + ".psnap")).string();
    ListPtr original = randomFlatList(rng, 200);
    saveList(path, original);
    ListPtr loaded = loadList(path);
    if (original->length() > 0) {
      EXPECT_TRUE(loaded->mappedBuffer());
    }
    EXPECT_TRUE(loaded->deepEquals(*original))
        << "seed=" << GetParam() << " trial=" << trial;
    EXPECT_EQ(loaded->display(), original->display());
  }
  std::filesystem::remove_all(dir);
}

TEST_P(PersistProperty, NestedTreesRoundTripExactly) {
  Rng rng{uint64_t(GetParam()) * 577};
  const auto dir = makeDir("nest-" + std::to_string(GetParam()));
  for (int trial = 0; trial < 8; ++trial) {
    const std::string path =
        (dir / ("t" + std::to_string(trial) + ".psnap")).string();
    const Value original = randomTree(rng, 4);
    saveValue(path, original);
    const Value loaded = loadValue(path);
    EXPECT_EQ(loaded.display(), original.display())
        << "seed=" << GetParam() << " trial=" << trial;
    if (original.isList()) {
      EXPECT_TRUE(loaded.asList()->deepEquals(*original.asList()));
    }
  }
  std::filesystem::remove_all(dir);
}

TEST_P(PersistProperty, MappedListsMutateAndCloneLikeOriginals) {
  Rng rng{uint64_t(GetParam()) * 3331};
  const auto dir = makeDir("mut-" + std::to_string(GetParam()));
  const std::string path = (dir / "m.psnap").string();
  for (int trial = 0; trial < 6; ++trial) {
    ListPtr original = randomFlatList(rng, 50);
    if (original->empty()) original->add(Value(1));
    saveList(path, original);
    ListPtr loaded = loadList(path);

    // structuredClone of the mapped list is byte-identical in behaviour.
    const Value clone = Value(loaded).structuredClone();
    EXPECT_EQ(clone.display(), Value(original).display());

    // The same random mutation sequence applied to the mapped list and
    // the in-memory original converges to the same state — the detach
    // gate's copy-out is semantically invisible.
    for (int step = 0; step < 10; ++step) {
      const Value v = randomScalar(rng);
      switch (rng.below(3)) {
        case 0:
          loaded->add(v);
          original->add(v);
          break;
        case 1: {
          const size_t at = 1 + size_t(rng.below(loaded->length()));
          loaded->replaceAt(at, v);
          original->replaceAt(at, v);
          break;
        }
        default: {
          const size_t at = 1 + size_t(rng.below(loaded->length()));
          loaded->insertAt(at, v);
          original->insertAt(at, v);
        }
      }
    }
    EXPECT_TRUE(loaded->deepEquals(*original));
    EXPECT_FALSE(loaded->mappedBuffer());  // first mutation detached
    // The clone (and the file) kept the pre-mutation bytes.
    EXPECT_EQ(clone.display(), Value(loadList(path)).display());
  }
  std::filesystem::remove_all(dir);
}

TEST_P(PersistProperty, MappedListsTransferAcrossWorkers) {
  Rng rng{uint64_t(GetParam()) * 7919};
  const auto dir = makeDir("xfer-" + std::to_string(GetParam()));
  const std::string path = (dir / "x.psnap").string();
  auto original = List::make();
  const size_t n = 64 + rng.below(64);
  for (size_t i = 0; i < n; ++i) original->add(Value(rng.uniform(-50, 50)));
  saveList(path, original);
  ListPtr loaded = loadList(path);
  ASSERT_TRUE(loaded->mappedBuffer());

  auto square = [](const Value& v) { return Value(v.asNumber() * v.asNumber()); };
  workers::Parallel fromMapped(loaded, {.maxWorkers = 4});
  fromMapped.map(square);
  workers::Parallel fromMemory(original, {.maxWorkers = 4});
  fromMemory.map(square);

  const std::vector<Value>& a = fromMapped.data();
  const std::vector<Value>& b = fromMemory.data();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].asNumber(), b[i].asNumber());
  }
  // The worker pipeline reads the mapped buffer in place.
  EXPECT_TRUE(loaded->mappedBuffer());
  std::filesystem::remove_all(dir);
}

TEST_P(PersistProperty, ProjectsRoundTripExactly) {
  Rng rng{uint64_t(GetParam()) * 271};
  const auto dir = makeDir("proj-" + std::to_string(GetParam()));
  const std::string path = (dir / "p.psnap").string();
  for (int trial = 0; trial < 4; ++trial) {
    project::Project original;
    original.name = "prop-" + std::to_string(trial);
    const size_t globals = rng.below(4);
    for (size_t g = 0; g < globals; ++g) {
      original.globals.push_back(
          {"g" + std::to_string(g), randomTree(rng, 3)});
    }
    const size_t sprites = rng.below(3);
    for (size_t s = 0; s < sprites; ++s) {
      project::SpriteDef sprite;
      sprite.name = "sprite" + std::to_string(s);
      sprite.x = rng.uniform(-100, 100);
      const size_t vars = rng.below(3);
      for (size_t v = 0; v < vars; ++v) {
        sprite.variables.push_back(
            {"v" + std::to_string(v), randomTree(rng, 2)});
      }
      sprite.scripts.push_back(testgen::randomScript(rng, 4));
      original.sprites.push_back(std::move(sprite));
    }

    project::saveProjectSnapshot(path, original);
    project::Project loaded = project::loadProjectSnapshot(path);

    EXPECT_EQ(loaded.name, original.name);
    ASSERT_EQ(loaded.globals.size(), original.globals.size());
    for (size_t g = 0; g < loaded.globals.size(); ++g) {
      EXPECT_EQ(loaded.globals[g].first, original.globals[g].first);
      EXPECT_EQ(loaded.globals[g].second.display(),
                original.globals[g].second.display());
    }
    ASSERT_EQ(loaded.sprites.size(), original.sprites.size());
    for (size_t s = 0; s < loaded.sprites.size(); ++s) {
      EXPECT_EQ(loaded.sprites[s].name, original.sprites[s].name);
      ASSERT_EQ(loaded.sprites[s].variables.size(),
                original.sprites[s].variables.size());
      for (size_t v = 0; v < loaded.sprites[s].variables.size(); ++v) {
        EXPECT_EQ(loaded.sprites[s].variables[v].second.display(),
                  original.sprites[s].variables[v].second.display());
      }
      ASSERT_EQ(loaded.sprites[s].scripts.size(),
                original.sprites[s].scripts.size());
      for (size_t c = 0; c < loaded.sprites[s].scripts.size(); ++c) {
        EXPECT_EQ(loaded.sprites[s].scripts[c]->display(),
                  original.sprites[s].scripts[c]->display());
      }
    }
  }
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PersistProperty, ::testing::Range(1, 7));

}  // namespace
}  // namespace psnap::persist
