#include "mapreduce/engine.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <utility>

#include "support/error.hpp"
#include "support/fault.hpp"
#include "support/strings.hpp"
#include "workers/stats.hpp"
#include "workers/worker_pool.hpp"

namespace psnap::mr {

using blocks::List;
using blocks::ListPtr;
using blocks::Value;
using workers::TaskGroup;
using workers::WorkerPool;

namespace {

constexpr const char* kNullInput = "mapReduce: null input list";

// A pair's sort key, computed once per pair instead of once per
// comparison (the seed re-ran parseNumber/toLower/display inside the
// stable_sort comparator).
//
// The textual rank is not materialized for text keys: `key` is a cheap
// COW handle whose bytes are compared case-insensitively on the fly
// (strings::compareIgnoreCase orders exactly like the seed's
// toLower-then-< over unsigned bytes). Only non-text keys still build a
// folded display string.
struct SortKey {
  Value key;           // refcount-bump copy keeps the text bytes alive
  double num = 0;
  bool numeric = false;
  std::string folded;  // toLower(display), only for non-text keys
};

std::string_view rankOf(const SortKey& k) {
  return k.key.isText() ? k.key.textView() : std::string_view(k.folded);
}

SortKey makeKey(const Value& key) {
  SortKey k;
  k.numeric = key.numericValue(k.num);
  // The textual rank stays reachable even for numeric keys — a numeric
  // key compared against a non-numeric one falls back to text order.
  if (key.isText()) {
    k.key = key;
  } else {
    k.folded = strings::toLower(key.display());
  }
  return k;
}

/// The key's hash bucket among `shardCount` shards. Keys that keyLess
/// treats as equivalent always share a shard, which is what makes the
/// sharded grouping emit the same order as a global sort (the ordering
/// proof is in DESIGN.md, "Executor architecture").
size_t shardOf(const SortKey& k, size_t shardCount) {
  if (shardCount == 1) return 0;
  uint64_t hash;
  if (k.numeric) {
    hash = std::hash<double>{}(k.num);
  } else if (k.key.isText()) {
    hash = k.key.loweredHash();  // cached on the shared rep for long text
  } else {
    hash = strings::hashLowered(k.folded);
  }
  return hash % shardCount;
}

/// Exactly the seed comparator's semantics, over precomputed ranks.
bool keyLess(const SortKey& a, const SortKey& b) {
  if (a.numeric && b.numeric) return a.num < b.num;
  return strings::compareIgnoreCase(rankOf(a), rankOf(b)) < 0;
}

/// Normalize one map result into a [key, value] pair. Runs inside the
/// map phase (on workers), so malformed pairs surface as map errors —
/// the seed's separate serial validation pass over all pairs is gone.
Value toPair(const Value& item, const Value& mapped) {
  if (mapped.isList() && mapped.asList()->length() == 2) {
    const Value& key = mapped.asList()->item(1);
    if (!key.isTransferable()) {
      throw Error(
          "mapReduce: explicit [key, value] pair has a non-transferable "
          "key of kind '" +
          std::string(blocks::valueKindName(key.kind())) +
          "'; keys must be cloneable (no rings)");
    }
    return mapped;  // explicit [key, value]
  }
  auto pair = List::make();
  pair->add(item);
  pair->add(mapped);
  return Value(pair);
}

/// Group adjacent equal keys of `sorted` (pair indices in key order) into
/// [key, [values…]] lists. `firsts`, when given, receives each group's
/// first pair index.
std::vector<Value> groupSorted(const std::vector<uint32_t>& sorted,
                               const std::vector<Value>& pairs,
                               std::vector<uint32_t>* firsts) {
  std::vector<Value> groups;
  for (uint32_t index : sorted) {
    const Value& key = pairs[index].asList()->item(1);
    const Value& value = pairs[index].asList()->item(2);
    if (!groups.empty() && groups.back().asList()->item(1).equals(key)) {
      groups.back().asList()->item(2).asList()->add(value);
    } else {
      auto group = List::make();
      group->add(key);
      group->add(Value(List::make({value})));
      groups.push_back(Value(group));
      if (firsts) firsts->push_back(index);
    }
  }
  return groups;
}

/// [key, values] → [key, reduceFn(values)].
Value reduceGroup(const ReduceFn& reduceFn, const Value& group) {
  auto out = List::make();
  out->add(group.asList()->item(1));
  out->add(reduceFn(group.asList()->item(2).asList()));
  return Value(out);
}

/// The sequential reference pipeline, run on the calling thread by
/// Options::sequential and by the degrade rung: a map loop, one global
/// stable sort, adjacent grouping and a reduce loop — no TaskGroups and
/// no fault points. The parallel path shards its sort and this does not,
/// so tests comparing the two check the sharding independently. Fills
/// the phase fields of `stats`.
ListPtr runSequential(blocks::ItemSpan items, const MapFn& mapFn,
                      const ReduceFn& reduceFn, Stats& stats) {
  std::vector<Value> pairs;
  std::vector<SortKey> keys;
  pairs.reserve(items.size());
  keys.reserve(items.size());
  for (const Value& item : items) {
    pairs.push_back(toPair(item, mapFn(item)));
    keys.push_back(makeKey(pairs.back().asList()->item(1)));
  }
  std::vector<uint32_t> order(pairs.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&keys](uint32_t a, uint32_t b) {
                     return keyLess(keys[a], keys[b]);
                   });
  std::vector<Value> out = groupSorted(order, pairs, nullptr);
  for (Value& group : out) group = reduceGroup(reduceFn, group);
  stats.mapMakespan = items.size();
  stats.distinctKeys = out.size();
  stats.reduceMakespan = out.size();
  return List::make(std::move(out));
}

}  // namespace

ReduceFn identityReduce() {
  return [](const ListPtr& values) { return Value(values); };
}

ListPtr run(const ListPtr& input, const MapFn& mapFn,
            const ReduceFn& reduceFn, const Options& options, Stats* stats) {
  if (options.sequential) {
    if (!input) throw Error(kNullInput);
    Stats local;
    local.inputItems = input->length();
    ListPtr out = runSequential(input->items(), mapFn, reduceFn, local);
    if (stats) *stats = local;
    return out;
  }
  Job job(input, mapFn, reduceFn, options);
  job.wait();
  if (job.failed()) std::rethrow_exception(job.error());
  if (stats) *stats = job.stats();
  return job.result();
}

// --- Job: the completion-chained pipeline -----------------------------------

struct Job::Pipeline {
  ListPtr input;  // the job's snapshot of the caller's list
  MapFn mapFn;
  ReduceFn reduceFn;
  Options options;
  workers::SubstrateStats* stats = nullptr;  // the constructing tenant's
  size_t n = 0;
  size_t shardCount = 1;

  // Stage 1 outputs: slot i is written by exactly one slice task.
  std::vector<Value> pairs;
  std::vector<SortKey> keys;
  // binned[slice][shard]: pair indices, ascending within each bin.
  std::vector<std::vector<std::vector<uint32_t>>> binned;

  // Stage 2 outputs: per shard, sorted [key, reduced] pairs and the pair
  // index of each one's key (what the merge compares).
  std::vector<std::vector<Value>> reduced;
  std::vector<std::vector<uint32_t>> heads;

  std::shared_ptr<TaskGroup> stage1;
  std::shared_ptr<TaskGroup> stage2;
};

Job::Job(ListPtr input, MapFn mapFn, ReduceFn reduceFn, Options options)
    : pipe_(std::make_unique<Pipeline>()) {
  Pipeline& p = *pipe_;
  p.mapFn = std::move(mapFn);
  p.reduceFn = std::move(reduceFn);
  p.options = std::move(options);
  p.stats = &workers::substrateStats();
  // One token spans the whole pipeline (map, shuffle and reduce share a
  // single wall-clock budget) and doubles as the cancel() handle, so it
  // exists even without a deadline or parent.
  token_ = p.options.deadlineSeconds > 0
               ? CancelToken::withDeadline(p.options.deadlineSeconds,
                                           p.options.cancel)
               : CancelToken::create(p.options.cancel);
  if (!input) {
    settleError(std::make_exception_ptr(Error(kNullInput)));
    return;
  }
  try {
    // Stage 1 reads the input on pool workers after this constructor
    // returns, so the job works on a COW snapshot anchored here — the
    // transfer Parallel::cloneIn makes, O(1) for a flat list. The owner's
    // later writes detach at the COW gate and never reach the job.
    p.input = input->snapshotClone();
  } catch (...) {
    settleError(std::current_exception());  // PurityError: rings, cycles
    return;
  }
  p.n = p.input->length();
  stats_.inputItems = p.n;
  if (p.n == 0) {
    result_ = List::make();
    settleOk();
    return;
  }
  const size_t width = p.options.workers == 0 ? 4 : p.options.workers;
  // Small inputs take a single shard: the chain's overhead stays off
  // short lists without changing the output.
  p.shardCount = p.n < 256 ? 1 : std::max<size_t>(1, width);
  p.pairs.resize(p.n);
  p.keys.resize(p.n);
  p.binned.assign(p.shardCount,
                  std::vector<std::vector<uint32_t>>(p.shardCount));
  p.reduced.resize(p.shardCount);
  p.heads.resize(p.shardCount);
  startStage1();
}

// Every path out of the chain settles the latch exactly once, as its last
// touch of the Job; ~Job's latch wait is therefore a full join.
Job::~Job() { latch_.wait(); }

void Job::wait() { latch_.wait(); }

void Job::onComplete(workers::CompletionLatch::Callback cb) {
  latch_.onSettle(std::move(cb));
}

void Job::cancel(const std::string& reason) { token_->cancel(reason); }

void Job::startStage1() {
  Pipeline& p = *pipe_;
  const size_t per = (p.n + p.shardCount - 1) / p.shardCount;
  stats_.mapMakespan = std::min(per, p.n);
  std::vector<TaskGroup::Task> tasks;
  tasks.reserve(p.shardCount);
  for (size_t s = 0; s < p.shardCount; ++s) {
    tasks.push_back([this, per](size_t slice) {
      Pipeline& p = *pipe_;
      const blocks::ItemSpan items = p.input->items();
      const size_t begin = std::min(slice * per, p.n);
      const size_t end = std::min(begin + per, p.n);
      // A retry restarts the slice from scratch: mapFn is pure, the
      // pairs/keys slots are overwritten, and the bins below are owned
      // by this slice alone, so clearing them makes the restart exact.
      workers::runWithRetries(p.options.maxRetries, *p.stats, [&] {
        for (auto& bin : p.binned[slice]) bin.clear();
        // Native chunk path: map the whole slice through the compiled
        // kernel on a scratch copy (the pairs are keyed by the ORIGINAL
        // items). A false return — kernel not installed, unmarshalable
        // element, element error — falls through to the per-item loop
        // with nothing written.
        std::vector<Value> mapped;
        bool batched = false;
        if (p.options.mapBatch && end > begin) {
          mapped.assign(items.begin() + begin, items.begin() + end);
          batched = p.options.mapBatch(mapped.data(), mapped.size());
        }
        for (size_t i = begin; i < end; ++i) {
          if (!batched) fault::inject(fault::Point::TaskThrow);
          if ((i - begin) % workers::kPollItems == workers::kPollItems - 1) {
            token_->checkpoint();
          }
          p.pairs[i] = toPair(items[i], batched ? mapped[i - begin]
                                                : p.mapFn(items[i]));
          p.keys[i] = makeKey(p.pairs[i].asList()->item(1));
          p.binned[slice][shardOf(p.keys[i], p.shardCount)].push_back(
              uint32_t(i));
        }
      });
    });
  }
  p.stage1 = std::make_shared<TaskGroup>(std::move(tasks), token_);
  submitStage(p.stage1, [this] { stage1Done(); });
}

void Job::stage1Done() {
  if (std::exception_ptr error = stageError(*pipe_->stage1)) {
    failOrDegrade(error);
    return;
  }
  startStage2();
}

void Job::startStage2() {
  Pipeline& p = *pipe_;
  std::vector<TaskGroup::Task> tasks;
  tasks.reserve(p.shardCount);
  for (size_t s = 0; s < p.shardCount; ++s) {
    tasks.push_back([this](size_t shard) {
      Pipeline& p = *pipe_;
      // Everything below is task-local until the final moves into
      // p.reduced/p.heads, so a retry restarts the shard exactly.
      workers::runWithRetries(p.options.maxRetries, *p.stats, [&] {
        fault::inject(fault::Point::TaskThrow);
        std::vector<uint32_t> indices;
        for (size_t slice = 0; slice < p.shardCount; ++slice) {
          const auto& bin = p.binned[slice][shard];
          indices.insert(indices.end(), bin.begin(), bin.end());
        }
        // Slices cover ascending contiguous ranges, so `indices` is
        // already ascending; stable_sort keeps equal keys in original
        // pair order — the stability a global sort would provide.
        std::stable_sort(indices.begin(), indices.end(),
                         [&p](uint32_t a, uint32_t b) {
                           return keyLess(p.keys[a], p.keys[b]);
                         });
        std::vector<uint32_t> heads;
        std::vector<Value> groups = groupSorted(indices, p.pairs, &heads);
        // Reduce each closed group in place — per-group reduction is
        // independent of how groups were formed, so fusing it here
        // leaves the output bytes unchanged.
        for (size_t g = 0; g < groups.size(); ++g) {
          fault::inject(fault::Point::TaskThrow);
          if (g % 256 == 255) token_->checkpoint();
          groups[g] = reduceGroup(p.reduceFn, groups[g]);
        }
        p.reduced[shard] = std::move(groups);
        p.heads[shard] = std::move(heads);
      });
    });
  }
  p.stage2 = std::make_shared<TaskGroup>(std::move(tasks), token_);
  submitStage(p.stage2, [this] { stage2Done(); });
}

void Job::stage2Done() {
  Pipeline& p = *pipe_;
  if (std::exception_ptr error = stageError(*p.stage2)) {
    failOrDegrade(error);
    return;
  }
  // Serial W-way merge of the per-shard sorted group lists; equivalent
  // keys share a shard by construction, so keys never tie across shards.
  size_t total = 0;
  uint64_t makespan = 0;
  for (const auto& shard : p.reduced) {
    total += shard.size();
    makespan = std::max<uint64_t>(makespan, shard.size());
  }
  stats_.distinctKeys = total;
  stats_.reduceMakespan = makespan;
  std::vector<Value> out;
  out.reserve(total);
  std::vector<size_t> cursor(p.shardCount, 0);
  auto headKey = [&p, &cursor](size_t s) -> const SortKey& {
    return p.keys[p.heads[s][cursor[s]]];
  };
  while (out.size() < total) {
    size_t best = p.shardCount;
    for (size_t s = 0; s < p.shardCount; ++s) {
      if (cursor[s] >= p.reduced[s].size()) continue;
      if (best == p.shardCount || keyLess(headKey(s), headKey(best))) {
        best = s;
      }
    }
    out.push_back(std::move(p.reduced[best][cursor[best]]));
    ++cursor[best];
  }
  result_ = List::make(std::move(out));
  settleOk();
}

std::exception_ptr Job::stageError(const TaskGroup& stage) {
  std::exception_ptr error = stage.error();
  if (!error && token_->cancelled()) {
    try {
      token_->checkpoint();
    } catch (...) {
      error = std::current_exception();
    }
  }
  return error;
}

void Job::markDegraded() {
  if (!stats_.degraded) {
    stats_.degraded = true;
    pipe_->stats->bump(&workers::SubstrateStats::downgrades);
  }
}

void Job::submitStage(const std::shared_ptr<TaskGroup>& stage,
                      workers::CompletionLatch::Callback continuation) {
  try {
    WorkerPool::shared().submit(stage);
  } catch (const SubstrateError&) {
    // The pool cannot take the stage (stopped or saturated); the group is
    // untouched (submit is all-or-nothing). Drain it inline on this
    // thread — the constructing thread for stage 1, possibly a worker
    // for a later stage — or, with degradation forbidden, settle typed
    // (constructors do not throw; jobs fail).
    if (!pipe_->options.allowDegrade) {
      settleError(std::current_exception());
      return;
    }
    markDegraded();
    stage->onComplete(std::move(continuation));
    while (stage->runOne()) {
    }
    return;
  }
  // Registered after a successful submit so a refused stage never leaves
  // a dangling continuation; if the workers already finished the stage,
  // this fires the continuation right here.
  stage->onComplete(std::move(continuation));
}

void Job::failOrDegrade(std::exception_ptr error) {
  Pipeline& p = *pipe_;
  // Only a *transient* substrate failure earns the sequential rerun.
  // Timeout/Cancelled must not (a rerun after a blown deadline only blows
  // it further) and user-script errors are deterministic.
  if (!p.options.allowDegrade ||
      classifyError(error) != ErrorClass::Substrate) {
    settleError(error);
    return;
  }
  // Rerun the sequential reference on whichever thread observed the
  // failure; whatever the mapper and reducer count belongs to the
  // constructing tenant.
  workers::StatsScope scope(*p.stats);
  markDegraded();
  try {
    result_ = runSequential(p.input->items(), p.mapFn, p.reduceFn, stats_);
    settleOk();
  } catch (...) {
    settleError(std::current_exception());
  }
}

void Job::settleOk() {
  done_.store(true, std::memory_order_release);
  latch_.settle();
}

void Job::settleError(std::exception_ptr error) {
  errorPtr_ = error;
  errorClass_ = classifyError(error);
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    error_ = e.what();
  } catch (...) {
    error_ = "unknown mapReduce error";
  }
  failed_.store(true, std::memory_order_release);
  done_.store(true, std::memory_order_release);
  latch_.settle();
}

}  // namespace psnap::mr
