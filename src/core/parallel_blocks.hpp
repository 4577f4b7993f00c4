// The paper's contribution: the parallelMap, parallelForEach, and
// mapReduce blocks (Sections 3–4), as interpreter primitives.
//
//   * reportParallelMap — Fig. 5 / Listing 2: compiles the ring to a pure
//     function, ships it to a Parallel job over real worker threads, and
//     parks the process on the job's completion callback (the
//     completion-driven successor of Listing 2's resolved() poll loop).
//     The optional workers slot defaults to the host's worker width
//     (`aCount || navigator.hardwareConcurrency || 4`).
//   * doParallelForEach — Fig. 8–10: in parallel mode, spawns sprite
//     clones that each run the C-slot body over a share of the list
//     *concurrently on the cooperative scheduler* (the pedagogical
//     visualization: three Pitcher clones pouring at once); the collapsed
//     mode runs the body sequentially like forEach.
//   * reportMapReduce — Fig. 11–13: compiles both rings and parks on the
//     engine's completion-chained pipeline.
//   * launchParallelMap / launchMapReduce / reportAwait — the deferred
//     forms: launch returns a pending Future value immediately (the
//     script keeps computing) and `await` joins it, parking only if the
//     operation is still in flight.
//
// Fault model (DESIGN.md, "Fault model"): these handlers are the
// outermost rung of the degradation ladder. When the worker substrate
// fails transiently — launch refused, transfer fault, chunk retries
// exhausted — the blocks complete the script's work anyway by collapsing
// to a sequential path that runs in slices across yields (the C++
// realisation of the paper's collapsed "in parallel" slot). User-script
// errors and deadline/cancellation trips never degrade; they fail the
// process with their error class preserved in the message.
#pragma once

#include "vm/process.hpp"
#include "workers/parallel.hpp"

namespace psnap::core {

/// Fault-model settings for the parallel blocks. Their maps use the
/// substrate's default Dynamic distribution and adaptive grain.
struct ParallelBlockOptions {
  /// Per-chunk substrate-error retries inside worker jobs.
  int maxRetries = 2;
  /// Wall-clock budget per parallel block invocation; 0 means none.
  /// Expiry fails the block with a timeout-classed error.
  double deadlineSeconds = 0;
  /// Permit the sequential fallback when the substrate fails.
  bool allowDegrade = true;
};

/// Register reportParallelMap, doParallelForEach, reportMapReduce, the
/// future-returning launch blocks with reportAwait, and the internal
/// __foreachDriver into `table`.
void registerParallelPrimitives(vm::PrimitiveTable& table,
                                ParallelBlockOptions options = {});

/// A PrimitiveTable with both the standard palette and the parallel
/// blocks — the table a full psnap environment runs with.
vm::PrimitiveTable fullPrimitiveTable(ParallelBlockOptions options = {});

}  // namespace psnap::core
