// The block IR: an immutable AST of blocks, input slots, and scripts.
//
// A Block is identified by its opcode (mirroring Snap!'s selector names,
// e.g. `reportSum`, `doSayFor`, `reportParallelMap`). Its inputs are slots
// that hold either a literal value, a nested reporter block, a nested
// command script (a C-slot), an *empty* slot (an implicit ring parameter,
// the grey blank of Fig. 4a in the paper), or a *collapsed* optional slot
// (the hidden "in parallel" input of the parallelForEach block, Fig. 8b).
//
// Blocks are immutable after construction and shared via shared_ptr, so a
// subtree can be safely referenced from rings, processes, clones, and the
// code generator at the same time.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "blocks/opcodes.hpp"
#include "blocks/value.hpp"

namespace psnap::blocks {

class Input;

/// A straight-line sequence of command blocks.
class Script {
 public:
  Script() = default;
  explicit Script(std::vector<BlockPtr> blocks) : blocks_(std::move(blocks)) {}

  static ScriptPtr make(std::vector<BlockPtr> blocks = {}) {
    return std::make_shared<const Script>(std::move(blocks));
  }

  const std::vector<BlockPtr>& blocks() const { return blocks_; }
  size_t size() const { return blocks_.size(); }
  bool empty() const { return blocks_.empty(); }
  const BlockPtr& at(size_t index) const { return blocks_.at(index); }

  /// Debug rendering, one block per line.
  std::string display() const;

 private:
  std::vector<BlockPtr> blocks_;
};

/// What an input slot holds.
enum class InputKind {
  Literal,    ///< an immediate Value typed into the slot
  BlockExpr,  ///< a nested reporter block
  ScriptSlot, ///< a C-slot holding a command script
  Empty,      ///< an empty slot: implicit parameter inside a ring
  Collapsed,  ///< an optional slot the user has left collapsed (use default)
};

/// One input slot of a block.
class Input {
 public:
  /// Literal slot.
  explicit Input(Value literal)
      : kind_(InputKind::Literal), literal_(std::move(literal)) {}
  /// Nested reporter slot.
  explicit Input(BlockPtr block)
      : kind_(InputKind::BlockExpr), block_(std::move(block)) {}
  /// C-slot.
  explicit Input(ScriptPtr script)
      : kind_(InputKind::ScriptSlot), script_(std::move(script)) {}

  static Input literal(Value value) { return Input(std::move(value)); }
  static Input expr(BlockPtr block) { return Input(std::move(block)); }
  static Input cslot(ScriptPtr script) { return Input(std::move(script)); }
  static Input empty() { return Input(InputKind::Empty); }
  static Input collapsed() { return Input(InputKind::Collapsed); }

  InputKind kind() const { return kind_; }
  bool isLiteral() const { return kind_ == InputKind::Literal; }
  bool isBlock() const { return kind_ == InputKind::BlockExpr; }
  bool isScript() const { return kind_ == InputKind::ScriptSlot; }
  bool isEmpty() const { return kind_ == InputKind::Empty; }
  bool isCollapsed() const { return kind_ == InputKind::Collapsed; }

  /// Valid only for the matching kind; throws BlockError otherwise.
  const Value& literalValue() const;
  const BlockPtr& block() const;
  const ScriptPtr& script() const;

 private:
  explicit Input(InputKind kind) : kind_(kind) {}

  InputKind kind_;
  Value literal_;
  BlockPtr block_;
  ScriptPtr script_;
};

/// An immutable block instance: opcode plus filled input slots.
///
/// The opcode is interned at construction, so every later consumer — the
/// VM step loop, the pure evaluator, the translator — dispatches on the
/// cached dense id without hashing the opcode string again.
class Block {
 public:
  Block(std::string opcode, std::vector<Input> inputs)
      : opcode_(std::move(opcode)),
        opcodeId_(internOpcode(opcode_)),
        inputs_(std::move(inputs)) {}

  static BlockPtr make(std::string opcode, std::vector<Input> inputs = {}) {
    return std::make_shared<const Block>(std::move(opcode),
                                         std::move(inputs));
  }

  const std::string& opcode() const { return opcode_; }
  OpcodeId opcodeId() const { return opcodeId_; }
  /// Is this block the given builtin?
  bool is(Op op) const { return opcodeId_ == id(op); }
  const std::vector<Input>& inputs() const { return inputs_; }
  size_t arity() const { return inputs_.size(); }
  const Input& input(size_t index) const { return inputs_.at(index); }

  /// Debug rendering: `(opcode in1 in2 …)` with nested parens.
  std::string display() const;

 private:
  std::string opcode_;
  OpcodeId opcodeId_;
  std::vector<Input> inputs_;
};

/// Collect the empty slots of a reporter expression (or command script) in
/// pre-order. The position of an Input in this sequence is its static
/// implicit-parameter ordinal — Snap! fills the blanks of a ring body left
/// to right in exactly this order.
std::vector<const Input*> collectEmptySlots(const Block& root);
std::vector<const Input*> collectEmptySlots(const Script& root);

/// Number of empty slots (implicit parameters) of a ring body.
size_t countEmptySlots(const Ring& ring);

/// Resolve the static ordinal of `slot` within the body of `ring`.
/// Returns the pre-order index; throws BlockError if the slot is not part
/// of the ring body.
size_t emptySlotOrdinal(const Ring& ring, const Input* slot);

/// The formal parameter names of a ring block: its inputs past the body.
std::vector<std::string> ringFormals(const Block& reify);

/// The ring a `reifyReporter` block evaluates to, closing over `captured`.
/// An empty body is the identity function and a literal body a constant
/// function.
RingPtr reifyReporter(const Block& reify, EnvPtr captured = nullptr);

}  // namespace psnap::blocks
