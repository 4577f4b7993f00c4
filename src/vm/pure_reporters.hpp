// The strict pure reporters, implemented once for every engine.
//
// parallelMap is a drop-in for map only if the interpreter and the worker
// evaluator (core/pure_eval) agree on every pure block, so each strict
// pure reporter — arithmetic, comparison and logic, text, list reporters —
// is one row here: the VM registers every row as a Handler, and pure_eval
// calls the row for a block's op. The interpreter's semantics are the
// contract: both engines raise a row's exact messages and error classes.
// Pure blocks that need their engine's frame (variable lookup, ring
// construction, the ring-calling map/keep/combine/evaluate) are not rows.
#pragma once

#include <cstddef>
#include <span>

#include "blocks/opcodes.hpp"
#include "blocks/value.hpp"

namespace psnap::vm {

/// A strict pure reporter over its `n` evaluated inputs.
using PureReporter = blocks::Value (*)(const blocks::Value* in, size_t n);

struct PureRow {
  blocks::Op op;
  PureReporter fn;
};

/// Every row, in palette order.
std::span<const PureRow> pureReporters();

/// The row for `id`, or nullptr when the opcode has none.
PureReporter findPureReporter(blocks::OpcodeId id);

}  // namespace psnap::vm
