// The persistent task executor behind every parallel operation — the
// stand-in for a browser's always-available Web Worker slots.
//
// The seed version was a thin Channel-backed job queue and each Parallel
// op spawned its own std::threads; this version is the process-wide
// substrate those ops submit to instead:
//
//   * one deque per worker, guarded by a per-worker mutex, with
//     round-robin placement on submit and work stealing on the consume
//     side;
//   * parking: workers sleep on a condition variable when every deque is
//     empty, so an idle pool burns no CPU (load-bearing on a 1-core host
//     where the cooperative scheduler's poll loop competes for the core);
//   * TaskGroup batches (see task_group.hpp): submit(group) enqueues
//     claim-loop runners, and waiters drain unclaimed tasks themselves,
//     which keeps nested pooled work (mapReduce inside the pool) live.
//
// Jobs are opaque closures; the pool makes no attempt to share state
// between them (the Parallel facade structured-clones all data it ships).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "workers/task_group.hpp"

namespace psnap::workers {

class WorkerPool {
 public:
  /// Spawn `width` worker threads (0 defaults to 4, the paper's default
  /// Web Worker count).
  explicit WorkerPool(size_t width = 0);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  size_t width() const { return threads_.size(); }

  /// Enqueue a job for any worker. Throws SubstrateError when the pool
  /// cannot accept work (stopped, or the pool-saturation fault point
  /// fires) — callers with a sequential path degrade to it.
  void submit(std::function<void()> job);

  /// Enqueue claim-loop runners for a task group: min(group->size(),
  /// width()) runners are spread round-robin across the worker deques,
  /// each claiming tasks until the group is drained. All-or-nothing: the
  /// availability check (and the pool-saturation fault point) runs before
  /// any runner is enqueued, so a SubstrateError here means the group is
  /// untouched and can be drained on the caller instead.
  void submit(const std::shared_ptr<TaskGroup>& group);

  /// Jobs completed per worker since construction (for utilization
  /// reporting in the benches).
  std::vector<uint64_t> jobsPerWorker() const;

  /// Total jobs completed.
  uint64_t jobsCompleted() const {
    return completed_.load(std::memory_order_relaxed);
  }

  /// The process-wide default pool, created on first use — analogous to
  /// the browser's worker slots always being available. Width is
  /// max(4, hardware_concurrency): never below the paper's default.
  static WorkerPool& shared();

 private:
  // Per-worker slot, cache-line padded so one worker's deque mutex and
  // job counter never false-share with a neighbour's.
  struct alignas(64) Slot {
    std::mutex mutex;
    std::deque<std::function<void()>> jobs;
    std::atomic<uint64_t> executed{0};
  };

  void workerMain(size_t index);
  /// Pop from own deque (LIFO) or steal from a neighbour (FIFO) and run
  /// one job. Returns false when every deque was empty.
  bool tryRunOne(size_t self);
  void push(size_t slot, std::function<void()> job);

  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<std::thread> threads_;
  std::atomic<uint64_t> completed_{0};
  std::atomic<int64_t> queued_{0};
  std::atomic<int64_t> inflight_{0};
  std::atomic<size_t> nextSlot_{0};  // round-robin submit cursor

  // Parking. sleepers_ is read by submitters (Dekker-style with queued_,
  // both seq_cst) to skip the notify when nobody sleeps.
  std::mutex parkMutex_;
  std::condition_variable parkCv_;
  std::atomic<int64_t> sleepers_{0};
  std::atomic<bool> stop_{false};
};

}  // namespace psnap::workers
