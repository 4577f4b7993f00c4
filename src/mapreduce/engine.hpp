// The MapReduce engine behind the mapReduce block (paper Sec. 3.4).
//
// Semantics, matching the paper's description and examples:
//
//   * The map function runs on every input item in parallel. Its result
//     becomes the intermediate pair: if the result is itself a two-element
//     list it is taken as [key, value]; otherwise the pair is
//     [item, result] ("a two-element list with the item as the key and the
//     result as the value").
//   * "The elements of the intermediate result are sorted by the value of
//     the key in between the map function and the reduce function, as
//     required by the semantics of MapReduce" (paper footnote 6).
//   * The reduce function runs once per distinct key, in parallel across
//     keys, receiving the list of that key's values and reporting the
//     reduced value. The identity reduce passes the values list through.
//   * The output is the sorted list of [key, reduced] pairs — exactly the
//     word-count readout of paper Fig. 12.
//
// Fault model: the pipeline owns its input, so it sits on the outermost
// rung of the degradation ladder (parallel.hpp) — when the parallel path
// dies with a *transient* substrate error (retries exhausted, shuffle
// task lost), run() re-executes the whole pipeline sequentially and
// reports Stats::degraded. Deadline expiry and cancellation do NOT
// degrade (a sequential rerun after a blown deadline would only blow it
// further); they surface as TimeoutError / CancelledError. User-script
// errors from the map/reduce functions are deterministic and always
// propagate with their original type.
//
// "Although conceptually simple, MapReduce implementations can be quite
// complex to set up and use. Fortunately, these details are hidden in the
// implementation of the MapReduce block" — this file is those details.
#pragma once

#include <atomic>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "blocks/value.hpp"
#include "support/cancel.hpp"
#include "support/error.hpp"
#include "workers/parallel.hpp"
#include "workers/task_group.hpp"

namespace psnap::mr {

/// item → mapped value (or explicit [key, value] pair).
using MapFn = std::function<blocks::Value(const blocks::Value&)>;
/// values-of-one-key → reduced value.
using ReduceFn = std::function<blocks::Value(const blocks::ListPtr&)>;

struct Options {
  /// Worker width for both phases; 0 uses the Parallel default (4).
  size_t workers = 0;
  /// Run phases sequentially on the caller thread (for the sequential
  /// baseline rows of the benches).
  bool sequential = false;
  /// Per-chunk retries inside the phase Parallels (substrate errors
  /// only; see ParallelOptions::maxRetries).
  int maxRetries = 2;
  /// Wall-clock budget for the whole pipeline (map + shuffle + reduce);
  /// 0 means none. Expiry fails the run with TimeoutError.
  double deadlineSeconds = 0;
  /// Permit the sequential rerun after a transient substrate failure.
  bool allowDegrade = true;
  /// External cancellation for the whole pipeline.
  CancelTokenPtr cancel{};
  /// Optional chunk-at-a-time fast path for the map phase (the native
  /// tier's compiled kernel). Same contract as workers::MapBatchFn:
  /// all-or-nothing in-place transform, false when not servable. The
  /// pipeline keys pairs by the ORIGINAL items, so the batch transform
  /// runs on a scratch copy of each slice.
  workers::MapBatchFn mapBatch{};
};

struct Stats {
  size_t inputItems = 0;
  size_t distinctKeys = 0;
  uint64_t mapMakespan = 0;     ///< virtual: max items mapped by one worker
  uint64_t reduceMakespan = 0;  ///< virtual: max groups reduced by one worker
  /// True when the run completed through the sequential fallback.
  bool degraded = false;
};

/// Run a complete MapReduce synchronously. Returns the sorted list of
/// [key, value] pairs. `stats`, when non-null, receives phase accounting.
blocks::ListPtr run(const blocks::ListPtr& input, const MapFn& mapFn,
                    const ReduceFn& reduceFn, const Options& options = {},
                    Stats* stats = nullptr);

/// The identity reduce: reports the values list unchanged (the paper notes
/// either phase may be the identity).
ReduceFn identityReduce();

/// An asynchronous MapReduce job for integration with the cooperative
/// scheduler — a completion-chained pipeline with no phase barriers:
///
///   stage 1   W slice tasks: map each item, normalize the pair, compute
///             its SortKey, bin its index by shard (the map phase and the
///             shuffle's key pass, fused);
///   stage 2   W shard tasks: concatenate the shard's bins, stable-sort,
///             group adjacent equal keys, reduce each group (the shuffle's
///             sort/group and the reduce phase, fused);
///   merge     a serial W-way merge of the per-shard sorted outputs, run
///             by whichever worker finishes stage 2 last.
///
/// Each stage is launched by its predecessor's completion callback — no
/// thread ever sits in a wait() between phases, and no pool worker is
/// pinned for the pipeline's duration. The output is byte-identical to
/// run()'s (the ordering argument is in DESIGN.md): per-shard grouping
/// emits the order of a global stable sort because equivalent keys always
/// share a shard, and the per-group reduce is independent of grouping.
///
/// The block primitive registers onComplete() and parks; the callback
/// fires exactly once, from the worker that settles the pipeline (or
/// immediately on the registering thread if already settled). resolved()
/// stays for tests and assertions. Degradation: a transient substrate
/// failure (or a refused stage submit with allowDegrade) reruns the
/// pipeline sequentially on the thread that observed the failure, under
/// the same deadline; with degradation forbidden, failures settle the job
/// typed — constructors do not throw.
class Job {
 public:
  Job(blocks::ListPtr input, MapFn mapFn, ReduceFn reduceFn,
      Options options);
  ~Job();

  Job(const Job&) = delete;
  Job& operator=(const Job&) = delete;

  /// Register a completion callback: fires exactly once, from the worker
  /// that settles the pipeline, or immediately if already settled.
  void onComplete(workers::CompletionLatch::Callback cb);

  /// Cancel the pipeline: stage tasks not yet claimed are skipped and the
  /// job settles with CancelledError (unless it already completed).
  void cancel(const std::string& reason = "mapReduce pipeline cancelled");

  /// Kept for tests and assertions; scheduler integration registers
  /// onComplete() instead of polling this per frame.
  bool resolved() const { return done_.load(std::memory_order_acquire); }
  bool failed() const { return failed_.load(std::memory_order_acquire); }
  const std::string& errorMessage() const { return error_; }
  /// The failure's class tag (None while clean). Meaningful once resolved.
  ErrorClass errorClass() const { return errorClass_; }
  /// The original exception (null while clean). Meaningful once resolved.
  const std::exception_ptr& error() const { return errorPtr_; }
  /// Did the pipeline complete through a sequential fallback (either the
  /// inline launch degrade or run()'s internal rerun)?
  bool wasDegraded() const {
    return degraded_.load(std::memory_order_acquire);
  }
  /// Valid once resolved and not failed.
  const blocks::ListPtr& result() const { return result_; }
  const Stats& stats() const { return stats_; }

 private:
  /// Heap-held pipeline state shared by the stage tasks (defined in
  /// engine.cpp). Tasks capture the owning Job*, which is safe because
  /// ~Job blocks on the latch and every path settles it last.
  struct Pipeline;

  void startStage1();
  void startStage2();
  void stage1Done();
  void stage2Done();
  /// Submit a stage; on pool refusal either drain it inline on this
  /// thread (allowDegrade) or settle the job with the SubstrateError.
  void submitStage(const std::shared_ptr<workers::TaskGroup>& stage,
                   workers::CompletionLatch::Callback continuation);
  /// Sequential rerun (same token, so the deadline does not restart) for
  /// a transient substrate failure; otherwise settle the error typed.
  void failOrDegrade(std::exception_ptr error);
  void settleOk();
  void settleError(std::exception_ptr error);

  std::unique_ptr<Pipeline> pipe_;
  workers::CompletionLatch latch_;
  CancelTokenPtr token_;  // always non-null: the job's cancel() handle
  std::atomic<bool> done_{false};
  std::atomic<bool> failed_{false};
  std::atomic<bool> degraded_{false};
  std::string error_;
  ErrorClass errorClass_ = ErrorClass::None;
  std::exception_ptr errorPtr_;
  blocks::ListPtr result_;
  Stats stats_;
};

}  // namespace psnap::mr
