#include "blocks/block.hpp"

#include "support/error.hpp"

namespace psnap::blocks {

const Value& Input::literalValue() const {
  if (!isLiteral()) throw BlockError("input slot holds no literal");
  return literal_;
}

const BlockPtr& Input::block() const {
  if (!isBlock()) throw BlockError("input slot holds no nested block");
  return block_;
}

const ScriptPtr& Input::script() const {
  if (!isScript()) throw BlockError("input slot holds no script");
  return script_;
}

namespace {

void displayInput(const Input& input, std::string& out) {
  switch (input.kind()) {
    case InputKind::Literal:
      out += input.literalValue().display();
      break;
    case InputKind::BlockExpr:
      out += input.block()->display();
      break;
    case InputKind::ScriptSlot:
      out += "{ " + input.script()->display() + " }";
      break;
    case InputKind::Empty:
      out += "_";
      break;
    case InputKind::Collapsed:
      out += "<collapsed>";
      break;
  }
}

void collectFromBlock(const Block& block, std::vector<const Input*>& out);

void collectFromScript(const Script& script,
                       std::vector<const Input*>& out) {
  for (const BlockPtr& block : script.blocks()) {
    collectFromBlock(*block, out);
  }
}

void collectFromBlock(const Block& block, std::vector<const Input*>& out) {
  for (const Input& input : block.inputs()) {
    switch (input.kind()) {
      case InputKind::Empty:
        out.push_back(&input);
        break;
      case InputKind::BlockExpr:
        collectFromBlock(*input.block(), out);
        break;
      case InputKind::ScriptSlot:
        collectFromScript(*input.script(), out);
        break;
      default:
        break;
    }
  }
}

}  // namespace

std::string Block::display() const {
  std::string out = "(" + opcode_;
  for (const Input& input : inputs_) {
    out += ' ';
    displayInput(input, out);
  }
  out += ')';
  return out;
}

std::string Script::display() const {
  std::string out;
  for (size_t i = 0; i < blocks_.size(); ++i) {
    if (i != 0) out += '\n';
    out += blocks_[i]->display();
  }
  return out;
}

std::vector<const Input*> collectEmptySlots(const Block& root) {
  std::vector<const Input*> out;
  collectFromBlock(root, out);
  return out;
}

std::vector<const Input*> collectEmptySlots(const Script& root) {
  std::vector<const Input*> out;
  collectFromScript(root, out);
  return out;
}

size_t countEmptySlots(const Ring& ring) { return ring.emptySlots().size(); }

const std::vector<const Input*>& Ring::emptySlots() const {
  std::call_once(emptySlotsOnce_, [this] {
    emptySlots_ = kind() == RingKind::Reporter
                      ? collectEmptySlots(*expression())
                      : collectEmptySlots(*script());
  });
  return emptySlots_;
}

size_t emptySlotOrdinal(const Ring& ring, const Input* slot) {
  const std::vector<const Input*>& slots = ring.emptySlots();
  for (size_t i = 0; i < slots.size(); ++i) {
    if (slots[i] == slot) return i;
  }
  throw BlockError("empty slot is not part of the ring body");
}

std::vector<std::string> ringFormals(const Block& reify) {
  std::vector<std::string> formals;
  for (size_t i = 1; i < reify.arity(); ++i) {
    formals.push_back(reify.input(i).literalValue().asText());
  }
  return formals;
}

RingPtr reifyReporter(const Block& reify, EnvPtr captured) {
  BlockPtr expression;
  if (reify.arity() == 0 || reify.input(0).isEmpty()) {
    static const BlockPtr identityTemplate =
        Block::make("reportIdentity", {Input::empty()});
    expression = identityTemplate;
  } else if (reify.input(0).isLiteral()) {
    expression =
        Block::make("reportIdentity", {Input(reify.input(0).literalValue())});
  } else {
    expression = reify.input(0).block();
  }
  return Ring::reporter(std::move(expression), ringFormals(reify),
                        std::move(captured));
}

}  // namespace psnap::blocks
