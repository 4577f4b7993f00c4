// The Parallel.js facade (paper Listing 1):
//
//   var p = new Parallel([1,2,3,4], {maxWorkers: 2});
//   p.map(mydouble);
//   console.log(p.data);
//
// becomes
//
//   Parallel p(values, {.maxWorkers = 2});
//   p.map(mydouble);          // asynchronous: onComplete() fires once
//   p.wait();
//   use(p.data());
//
// Semantics preserved from the paper:
//   * data is structured-cloned into the job (workers never share state
//     with the main thread);
//   * "if fewer workers are created than there are list elements, the
//     workers systematically process the remaining elements from the list
//     until completed" — the default distribution is dynamic
//     self-scheduling over an atomic cursor, with a grain the substrate
//     chooses per claim (adaptiveGrain: large chunks first, single items
//     at the tail);
//   * completion is observed through onComplete() callbacks (the
//     completion-driven successor of Listing 2's `operation._resolved`
//     poll flag): the parallelMap block parks its process on the
//     callback and the finishing worker re-readies it. resolved() still
//     answers the instantaneous question for tests and wait() fast
//     paths, but nothing in the runtime spins on it.
//
// Execution substrate: operations no longer spawn threads. Each logical
// worker becomes one chunk task in a TaskGroup submitted to the shared
// WorkerPool, so op launch costs a queue push instead of maxWorkers
// thread spawns, and wait() joins by draining the group (running
// unclaimed chunks on the calling thread) instead of std::thread::join.
// Logical workers are decoupled from pool width: maxWorkers = 16 still
// yields 16 chunk tasks (and 16 itemsPerWorker slots) however many OS
// threads the pool owns.
//
// Fault model (the degradation ladder, outermost rung last):
//   1. *retry*: a chunk that dies with a SubstrateError is retried in
//      place up to maxRetries times with bounded deterministic backoff
//      (runWithRetries, shared with mr::Job's stage tasks). Safe because
//      map functions are pure by construction (the core module only
//      compiles pure rings to MapFn) and the chunk loops write each
//      element exactly once — a throw from fn leaves the element
//      unwritten, so resuming at the failed index re-applies fn to
//      original input, never to an already-mapped value;
//   2. *fail-fast*: the first unretryable failure cancels the group —
//      unstarted sibling chunks are skipped, not drained;
//   3. *degrade*: if the pool cannot accept the launch (stopped, or the
//      pool-saturation fault fires), the chunk tasks are drained
//      synchronously on the caller instead — the op completes on the
//      sequential rung and records the downgrade. A substrate error that
//      survives retries fails the op with errorClass() == Substrate; the
//      call site that still owns the original input (the parallelMap
//      handler) reads that tag and re-runs its sequential path
//      (the C++ realisation of collapsing the paper's "in parallel"
//      slot). Keeping the rerun at the owner avoids a pristine snapshot
//      of the input on every launch. User-script errors (TypeError, …)
//      never retry or degrade — they surface with their original
//      exception type.
// Deadlines ride the same machinery: deadlineSeconds arms a CancelToken
// that chunk claims (and chunks, every kPollItems items) poll, and an
// expired deadline surfaces as a TimeoutError unless every item had
// already been processed.
//
// In addition to wall-clock execution, the facade tracks items-per-worker
// so benches can report *virtual makespan* (max items on any worker) —
// the metric that carries the paper's speedup shape on a 1-core host.
#pragma once

#include <algorithm>
#include <atomic>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "blocks/value.hpp"
#include "support/cancel.hpp"
#include "support/error.hpp"
#include "workers/task_group.hpp"

namespace psnap::workers {

/// A unary function shipped to workers. Must be thread-safe and must not
/// touch interpreter state (the core module compiles *pure* rings to this
/// type, mirroring Listing 2's mappedCode()-to-Function step).
using MapFn = std::function<blocks::Value(const blocks::Value&)>;
/// An optional chunk-at-a-time fast path for map (the native tier's
/// compiled kernels): transform `count` values in place and return true,
/// or return false WITHOUT writing anything — the caller then applies the
/// per-item MapFn. The all-or-nothing write contract is what keeps the
/// chunk retry loop exact (every element written at most once).
using MapBatchFn = std::function<bool(blocks::Value*, size_t count)>;

/// How list elements are assigned to workers (ablation A2 in DESIGN.md).
enum class Distribution {
  Dynamic,     ///< self-scheduling: workers claim the next chunk (default)
  Contiguous,  ///< static contiguous chunks of ceil(n/w)
  BlockCyclic, ///< static round-robin by chunkSize
};

/// Largest chunk one Dynamic claim takes under the default grain.
inline constexpr size_t kMaxGrain = 4096;

/// A chunk polls for cancellation, failure and deadline every kPollItems
/// items, so a trip stops each worker within kPollItems items however
/// large its chunk is (mr::Job's map slices poll at the same stride).
inline constexpr size_t kPollItems = 512;

/// The Dynamic distribution's default grain (factoring self-scheduling):
/// a claim made while `remaining` items are unclaimed among `workers`
/// logical workers takes clamp(ceil(remaining / (2·workers)), 1,
/// kMaxGrain) items. Chunks start large, so a cheap map pays a handful
/// of claims, and shrink to one item at the tail, so a heavy or skewed
/// map stays balanced. Claims over n items number at most about
/// n / kMaxGrain + 2·workers·(ln n + 1).
constexpr size_t adaptiveGrain(size_t remaining, size_t workers) {
  const size_t split = 2 * std::max<size_t>(workers, 1);
  return std::clamp<size_t>((remaining + split - 1) / split, 1, kMaxGrain);
}

/// Bounded deterministic backoff before retry number `attempt` (from 1):
/// 100us, 200us, 400us, … capped at 2ms. Fixed durations (no jitter) keep
/// chaos runs reproducible; the cap keeps a doomed task from stalling its
/// group.
void retryBackoff(int attempt);

/// The retry rung, shared by Parallel's chunks and mr::Job's stage tasks:
/// run `body`; when it throws a retryable (substrate-class) error, count
/// a retry in `stats`, back off and run it again, at most `maxRetries`
/// times. Any other error, and the last retryable one, propagates with
/// its original type. `body` must leave its outputs exact when re-run
/// after a throw.
template <class Body>
void runWithRetries(int maxRetries, SubstrateStats& stats, Body&& body) {
  for (int attempt = 1;; ++attempt) {
    try {
      body();
      return;
    } catch (...) {
      if (attempt > maxRetries ||
          !isRetryableClass(classifyError(std::current_exception()))) {
        throw;
      }
      stats.bump(&SubstrateStats::retries);
    }
    retryBackoff(attempt);
  }
}

struct ParallelOptions {
  /// Number of logical workers; 0 uses the default of 4 (the paper:
  /// "By default, four Web Workers are created").
  size_t maxWorkers = 0;
  Distribution distribution = Distribution::Dynamic;
  /// Chunk granularity. 0 (the default) lets the substrate choose:
  /// adaptiveGrain per claim for Dynamic, 1 for BlockCyclic. A positive
  /// value fixes the grain (the A2 ablation). Contiguous ignores it.
  size_t chunkSize = 0;
  /// Retries per chunk on SubstrateError (0 disables). Only the
  /// substrate class retries; user-script errors are deterministic.
  int maxRetries = 2;
  /// Wall-clock budget from launch; 0 means none. Expiry cancels
  /// remaining chunks and the operation fails with TimeoutError.
  double deadlineSeconds = 0;
  /// Drain the chunk tasks on the caller when the pool cannot accept the
  /// launch, instead of failing the operation.
  bool allowDegrade = true;
  /// External cancellation (e.g. the owning script's token): cancelling
  /// it cancels this operation within kPollItems items per worker.
  CancelTokenPtr cancel{};
};

class Parallel {
 public:
  /// Clone `data` into the job (structured-clone semantics; throws
  /// PurityError if a value is not transferable, SubstrateError if the
  /// transfer fault point fires). Physically this is a COW snapshot —
  /// flat lists share their item buffer, text shares its immutable rep —
  /// so entry costs O(elements) refcount bumps instead of a deep copy.
  /// The snapshot is anchored before the constructor returns: later
  /// mutation of the source detaches at the COW gate and never leaks
  /// into the job. Accepts any item view — an owned vector binds
  /// implicitly, and a mapped (mmap-backed) list's buffer enters without
  /// materializing first.
  Parallel(blocks::ItemSpan data, ParallelOptions options);
  explicit Parallel(const blocks::ListPtr& list,
                    ParallelOptions options = {});
  ~Parallel();

  Parallel(const Parallel&) = delete;
  Parallel& operator=(const Parallel&) = delete;

  size_t workerCount() const { return workers_; }

  /// Launch an asynchronous parallel map. May be called once per Parallel.
  /// `batch`, when given, is tried once per chunk before the per-item
  /// loop (see MapBatchFn).
  void map(MapFn fn, MapBatchFn batch = {});

  /// Has the running operation finished? (Listing 2's `_resolved`.)
  /// Kept for tests and assertions; scheduler integration registers
  /// onComplete() instead of polling this per frame.
  bool resolved() const;

  /// Register a completion callback: fires exactly once, from the worker
  /// that finishes the operation (or immediately if already resolved, or
  /// on the caller when the launch degrades to an inline drain).
  /// Callbacks registered before map() are attached at launch.
  void onComplete(std::function<void()> cb);

  /// Block until resolved (draining unclaimed chunk tasks on this
  /// thread). Failures are captured, not thrown (see failed()/data()).
  void wait();

  /// Cancel the operation: remaining chunks are skipped and the
  /// operation fails with CancelledError (unless it already completed).
  void cancel(const std::string& reason = "parallel operation cancelled");

  /// True once resolved if the operation failed; errorMessage() holds the
  /// first error and errorClass() its type tag.
  bool failed() const;
  const std::string& errorMessage() const { return error_; }
  ErrorClass errorClass() const { return errorClass_; }

  /// Did the operation complete through the sequential fallback?
  bool wasDegraded() const { return degraded_.load(); }

  /// The element-wise results. Calls wait() internally. Rethrows the
  /// worker's error with its original exception type if the operation
  /// failed.
  const std::vector<blocks::Value>& data();

  /// Move the result out instead of copying (a launched parallelMap hands
  /// its whole vector to the future). Same wait/throw behaviour as
  /// data(); the Parallel is spent afterwards.
  std::vector<blocks::Value> takeData();

  /// Items processed by each logical worker during the last operation.
  std::vector<uint64_t> itemsPerWorker() const;

  /// Virtual makespan: the maximum number of items any single worker
  /// processed — the completion time in idealized unit-cost timesteps.
  uint64_t virtualMakespan() const;

 private:
  // One counter slot per logical worker, cache-line padded: workers flush
  // a chunk's item count with one relaxed add instead of a per-item
  // fetch_add into a shared array.
  struct alignas(64) CounterSlot {
    std::atomic<uint64_t> items{0};
  };

  void cloneIn(blocks::ItemSpan source);
  /// Mark the one operation as launched, or throw if one already is —
  /// before map() writes anything the running chunk tasks read.
  void claimLaunch();
  /// Submit `taskCount` chunk tasks running `body(logicalWorker)`.
  void launch(std::function<void(size_t)> body, size_t taskCount);
  /// Record the first failure (original exception preserved) and cancel
  /// the group so unstarted siblings are skipped.
  void recordError(std::exception_ptr error);
  /// Claim the next Dynamic chunk [begin, end) of `n` items; false once
  /// every item is claimed.
  bool claim(size_t n, size_t& begin, size_t& end);
  /// Map one range in place with the chunk retry loop, polling
  /// keepGoing() every kPollItems items. Returns normally (possibly
  /// stopped early by a cancel) or rethrows the unretryable /
  /// retry-exhausted error.
  void mapRange(const MapFn& fn, size_t begin, size_t end, size_t w);
  /// Should the task keep claiming chunks? False once cancelled, failed,
  /// or past the deadline.
  bool keepGoing() const;
  /// Total items processed across all logical workers.
  uint64_t processedItems() const;

  std::vector<blocks::Value> data_;
  size_t workers_;
  ParallelOptions options_;

  std::shared_ptr<TaskGroup> group_;
  CancelTokenPtr token_;  // set when a deadline or external cancel exists
  SubstrateStats* stats_;  // the constructing thread's scope, never null
  std::vector<CounterSlot> perWorker_;
  std::atomic<size_t> cursor_{0};
  std::atomic<bool> launched_{false};
  std::atomic<bool> failedFlag_{false};
  std::atomic<bool> degraded_{false};
  std::string error_;
  ErrorClass errorClass_ = ErrorClass::None;
  std::exception_ptr errorPtr_;
  std::mutex errorMutex_;
  // onComplete registrations made before launch; attached to the group
  // (under errorMutex_) the moment it exists.
  std::vector<std::function<void()>> pendingCallbacks_;
  MapBatchFn batch_;  // optional native chunk path
  std::string cancelReason_ = "parallel operation cancelled";
  size_t inputSize_ = 0;
  bool joined_ = false;
};

}  // namespace psnap::workers
