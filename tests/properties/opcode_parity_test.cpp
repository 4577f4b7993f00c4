// Opcode parity: for every pure opcode in the palette, a sample
// expression is evaluated by the interpreter AND by the worker-side pure
// evaluator (compileRing) — the two execution engines must agree, since
// parallelMap's correctness rests on that agreement. Edge samples extend
// the agreement to failing inputs: the same error class and message.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "blocks/builder.hpp"
#include "blocks/opcodes.hpp"
#include "core/parallel_blocks.hpp"
#include "core/pure_eval.hpp"
#include "sched/thread_manager.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "tests/properties/generators.hpp"
#include "vm/process.hpp"
#include "vm/pure_reporters.hpp"

namespace psnap::core {
namespace {

using namespace psnap::build;
using blocks::BlockRegistry;
using blocks::Environment;
using blocks::Value;

struct Sample {
  const char* opcode;       // documented coverage target
  blocks::BlockPtr expr;    // expression using the opcode, over one blank
};

std::vector<Sample> samples() {
  return {
      {"reportSum", sum(empty(), 2)},
      {"reportDifference", difference(empty(), 2)},
      {"reportProduct", product(empty(), 3)},
      {"reportQuotient", quotient(empty(), 4)},
      {"reportModulus", modulus(empty(), 3)},
      {"reportPower", power(empty(), 2)},
      {"reportRound", round_(empty())},
      {"reportMonadic", monadic("abs", empty())},
      {"reportMonadic", monadic("sqrt", empty())},
      {"reportMonadic", monadic("atan", empty())},
      {"reportMonadic", monadic("floor", quotient(empty(), 2.5))},
      {"reportEquals", equals(empty(), 5)},
      {"reportLessThan", lessThan(empty(), 5)},
      {"reportGreaterThan", greaterThan(empty(), 5)},
      {"reportAnd", and_(greaterThan(empty(), 0), true)},
      {"reportOr", or_(lessThan(empty(), 0), false)},
      {"reportNot", not_(equals(empty(), 5))},
      {"reportIfElse", ifElseReporter(greaterThan(empty(), 0), "pos",
                                      "nonpos")},
      {"reportJoinWords", join({In("v="), In(empty())})},
      {"reportLetter", letter(1, join({In("x"), In(empty())}))},
      {"reportStringSize", textLength(join({In("n"), In(empty())}))},
      {"reportUnicode", blk("reportUnicode", {In("A")})},
      {"reportUnicodeAsLetter", blk("reportUnicodeAsLetter", {In(66)})},
      {"reportSplit", splitText(join({In("a b "), In(empty())}), " ")},
      {"reportIsA", isA(empty(), "number")},
      {"reportIdentity", identity(empty())},
      {"reportNewList", listOf({In(empty()), In(2)})},
      {"reportListItem", itemOf(1, listOf({In(empty()), In(2)}))},
      {"reportListLength", lengthOf(listOf({In(empty()), In(2)}))},
      {"reportListContainsItem",
       contains(listOf({1, 2, 3}), empty())},
      {"reportListIndex", indexOf(empty(), listOf({5, 7, 9}))},
      {"reportCONS", blk("reportCONS", {In(empty()), In(listOf({1}))})},
      {"reportCDR", blk("reportCDR", {In(listOf({In(empty()), In(2)}))})},
      {"reportNumbers", numbersFromTo(1, sum(empty(), 1))},
      {"reportSorted", sorted(listOf({In(empty()), In(3), In(-1)}))},
      {"reportMap", mapOver(ring(product(empty(), 2)),
                            listOf({In(empty()), In(4)}))},
      {"reportKeep", keepFrom(ring(greaterThan(empty(), 2)),
                              listOf({In(empty()), In(5)}))},
      {"reportCombine", combineUsing(listOf({In(empty()), In(4), In(6)}),
                                     ring(sum(empty(), empty())))},
      {"evaluate", callRing(ring(sum(empty(), 100)), {In(empty())})},
  };
}

class OpcodeParity : public ::testing::TestWithParam<size_t> {};

TEST_P(OpcodeParity, InterpreterAndPureEvaluatorAgree) {
  Sample sample = samples()[GetParam()];
  static vm::PrimitiveTable prims = fullPrimitiveTable();

  // Note: inner rings capture their own blanks, so pass a blank-free
  // argument set — the sample's outermost blanks positionally.
  for (double x : {1.0, 3.0, 7.0}) {
    sched::ThreadManager tm(&BlockRegistry::standard(), &prims);
    blocks::RingPtr ringValue =
        tm.evaluate(ring(In(sample.expr)), Environment::make()).asRing();

    sched::ThreadManager tm2(&BlockRegistry::standard(), &prims);
    Value viaInterpreter = tm2.evaluate(
        callRing(ring(In(sample.expr)), {In(x)}), Environment::make());
    Value viaPure = compileRing(ringValue)({Value(x)});
    EXPECT_TRUE(viaPure.equals(viaInterpreter))
        << sample.opcode << " x=" << x
        << "\n  interpreter: " << viaInterpreter.display()
        << "\n  pure:        " << viaPure.display();
  }
}

INSTANTIATE_TEST_SUITE_P(AllPureOpcodes, OpcodeParity,
                         ::testing::Range<size_t>(0, samples().size()),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return std::string(samples()[info.param].opcode) +
                                  "_" + std::to_string(info.param);
                         });

// Every sample above names a real registered pure opcode — keeps the
// table honest as the palette grows.
TEST(OpcodeParityTable, CoversOnlyRegisteredPureOpcodes) {
  const BlockRegistry& registry = BlockRegistry::standard();
  for (const Sample& sample : samples()) {
    ASSERT_TRUE(registry.has(sample.opcode)) << sample.opcode;
    if (std::string(sample.opcode) != "evaluate") {
      EXPECT_TRUE(registry.get(sample.opcode).pure) << sample.opcode;
    }
  }
}

// ---------------------------------------------------------------------------
// Error-path parity: on failing and edge inputs both engines give the same
// value, or raise the same error class with the same message.
// ---------------------------------------------------------------------------

std::vector<Sample> edgeSamples() {
  return {
      {"reportCDR", blk("reportCDR", {In(listOf({}))})},
      {"reportSplit", splitText("a--b", "--")},
      {"reportListItem", itemOf(0, listOf({1, 2}))},
      {"reportListItem", itemOf(-1, listOf({1, 2}))},
      {"reportListItem", itemOf(5, listOf({1, 2}))},
      {"reportMonadic", monadic("foo", empty())},
      {"reportUnicode", blk("reportUnicode", {In("")})},
      {"reportQuotient", quotient(empty(), 0)},
      {"reportModulus", modulus(empty(), 0)},
      {"reportMonadic", monadic("sqrt", difference(0, empty()))},
      {"reportMonadic", monadic("ln", difference(0, empty()))},
      {"reportMonadic", monadic("log", difference(0, empty()))},
  };
}

/// What one engine made of a sample: a value, or an error's class and
/// message.
struct Outcome {
  Value value;
  ErrorClass errorClass = ErrorClass::None;
  std::string message;
};

Outcome viaInterpreter(const blocks::BlockPtr& expr, double x) {
  static vm::PrimitiveTable prims = fullPrimitiveTable();
  vm::NullHost host;
  vm::Process p(&BlockRegistry::standard(), &prims, &host);
  p.startExpression(callRing(ring(In(expr)), {In(x)}), Environment::make());
  Outcome out;
  try {
    out.value = p.runToCompletion();
  } catch (const Error& e) {
    const std::string prefix = "process failed: ";
    out.errorClass = p.errorClass();
    out.message = e.what();
    if (out.message.rfind(prefix, 0) == 0) out.message.erase(0, prefix.size());
  }
  return out;
}

Outcome viaWorker(const blocks::BlockPtr& expr, double x) {
  static vm::PrimitiveTable prims = fullPrimitiveTable();
  sched::ThreadManager tm(&BlockRegistry::standard(), &prims);
  blocks::RingPtr ringValue =
      tm.evaluate(ring(In(expr)), Environment::make()).asRing();
  Outcome out;
  try {
    out.value = compileRing(ringValue)({Value(x)});
  } catch (const Error& e) {
    out.errorClass = classifyError(std::current_exception());
    out.message = e.what();
  }
  return out;
}

class OpcodeErrorParity : public ::testing::TestWithParam<size_t> {};

TEST_P(OpcodeErrorParity, InterpreterAndPureEvaluatorAgree) {
  Sample sample = edgeSamples()[GetParam()];
  for (double x : {1.0, 3.0}) {
    const Outcome interpreted = viaInterpreter(sample.expr, x);
    const Outcome pure = viaWorker(sample.expr, x);
    EXPECT_EQ(std::string(errorClassName(pure.errorClass)),
              errorClassName(interpreted.errorClass))
        << sample.opcode << " x=" << x;
    EXPECT_EQ(pure.message, interpreted.message) << sample.opcode << " x=" << x;
    EXPECT_TRUE(pure.value.equals(interpreted.value))
        << sample.opcode << " x=" << x
        << "\n  interpreter: " << interpreted.value.display()
        << "\n  pure:        " << pure.value.display();
  }
}

INSTANTIATE_TEST_SUITE_P(EdgeInputs, OpcodeErrorParity,
                         ::testing::Range<size_t>(0, edgeSamples().size()),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return std::string(
                                      edgeSamples()[info.param].opcode) +
                                  "_" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Dispatch-table integrity: the interned-id tables (registry, primitive
// table) must agree with each other and with the string surface.
// ---------------------------------------------------------------------------

// Specs that intentionally have no primitive handler: hat blocks are
// matched by the stage's event dispatcher and the code-mapping pair is
// expanded by the code generator, so none of them ever reach
// Process::stepBlock.
const std::set<std::string>& handlerlessOpcodes() {
  static const std::set<std::string> kHandlerless = {
      "doMapToCode",       "reportMappedCode", "receiveCloneStart",
      "receiveGo",         "receiveKey",       "receiveMessage",
  };
  return kHandlerless;
}

TEST(DispatchTables, HandlersAndSpecsAgreeById) {
  const BlockRegistry& registry = BlockRegistry::standard();
  vm::PrimitiveTable prims = fullPrimitiveTable();

  // Every registered handler id names a registered spec, and the spec
  // carries that same id.
  for (blocks::OpcodeId opId : prims.registeredIds()) {
    const blocks::BlockSpec* spec = registry.specOf(opId);
    ASSERT_NE(spec, nullptr) << blocks::opcodeName(opId);
    EXPECT_EQ(spec->id, opId) << spec->opcode;
  }

  // Every spec either has a handler under its id or is on the known
  // handlerless list — no opcode silently falls through both tables.
  for (const std::string& opcode : registry.opcodes()) {
    const blocks::OpcodeId opId = registry.idOf(opcode);
    if (prims.findById(opId) == nullptr) {
      EXPECT_TRUE(handlerlessOpcodes().count(opcode))
          << opcode << " has a spec but no handler";
    } else {
      EXPECT_FALSE(handlerlessOpcodes().count(opcode))
          << opcode << " gained a handler; update handlerlessOpcodes()";
    }
  }
}

// Pure specs with no row in the shared reporter table: they need their
// engine's frame (variable lookup, ring construction, ring calls), so the
// interpreter and the worker evaluator each implement them.
const std::set<std::string>& engineSpecificPureOpcodes() {
  static const std::set<std::string> kEngineSpecific = {
      "reportGetVar", "reifyReporter", "reifyScript",
      "reportMap",    "reportKeep",    "reportCombine",
  };
  return kEngineSpecific;
}

TEST(DispatchTables, PureReporterRowsAndPureSpecsAgreeById) {
  const BlockRegistry& registry = BlockRegistry::standard();

  // Every row names a registry-pure spec, once, and is found by its id.
  std::set<blocks::OpcodeId> rowIds;
  for (const vm::PureRow& row : vm::pureReporters()) {
    const blocks::OpcodeId opId = blocks::id(row.op);
    EXPECT_TRUE(rowIds.insert(opId).second) << blocks::opcodeName(opId);
    const blocks::BlockSpec* spec = registry.specOf(opId);
    ASSERT_NE(spec, nullptr) << blocks::opcodeName(opId);
    EXPECT_TRUE(spec->pure) << spec->opcode << " has a row but is impure";
    EXPECT_EQ(vm::findPureReporter(opId), row.fn) << spec->opcode;
  }

  // Every pure spec has a row or is engine-specific, never both; impure
  // specs have no row.
  for (const std::string& opcode : registry.opcodes()) {
    const blocks::OpcodeId opId = registry.idOf(opcode);
    const bool hasRow = vm::findPureReporter(opId) != nullptr;
    if (!registry.specOf(opId)->pure) {
      EXPECT_FALSE(hasRow) << opcode << " is impure but has a row";
    } else if (engineSpecificPureOpcodes().count(opcode)) {
      EXPECT_FALSE(hasRow)
          << opcode << " gained a row; update engineSpecificPureOpcodes()";
    } else {
      EXPECT_TRUE(hasRow) << opcode << " is pure but has no row";
    }
  }

  // Opcodes interned past the builtin palette have no row.
  EXPECT_EQ(vm::findPureReporter(blocks::internOpcode("testOnlyReporter")),
            nullptr);
}

TEST(DispatchTables, IdOfAndSpecOfRoundTripForEveryOpcode) {
  const BlockRegistry& registry = BlockRegistry::standard();
  const std::vector<std::string>& opcodes = registry.opcodes();
  EXPECT_TRUE(std::is_sorted(opcodes.begin(), opcodes.end()));

  for (const std::string& opcode : opcodes) {
    const blocks::OpcodeId opId = registry.idOf(opcode);
    ASSERT_NE(opId, blocks::kInvalidOpcodeId) << opcode;
    EXPECT_EQ(blocks::lookupOpcode(opcode), opId) << opcode;
    EXPECT_EQ(blocks::opcodeName(opId), opcode);
    const blocks::BlockSpec* spec = registry.specOf(opId);
    ASSERT_NE(spec, nullptr) << opcode;
    EXPECT_EQ(spec->opcode, opcode);
    EXPECT_EQ(spec->id, opId);
    // Blocks constructed with this opcode intern to the same id.
    EXPECT_EQ(blk(opcode)->opcodeId(), opId) << opcode;
  }
}

// ---------------------------------------------------------------------------
// Dispatch parity: the id-dispatch fast path and the string-dispatch
// reference path must be observationally identical on random programs.
// ---------------------------------------------------------------------------

Value runExpression(vm::DispatchMode mode, const blocks::BlockPtr& expr) {
  static vm::PrimitiveTable prims = fullPrimitiveTable();
  vm::NullHost host;
  vm::Process p(&BlockRegistry::standard(), &prims, &host);
  p.setDispatchMode(mode);
  p.startExpression(expr, Environment::make());
  return p.runToCompletion();
}

void runScript(vm::DispatchMode mode, const blocks::ScriptPtr& script,
               const blocks::EnvPtr& env) {
  static vm::PrimitiveTable prims = fullPrimitiveTable();
  vm::NullHost host;
  vm::Process p(&BlockRegistry::standard(), &prims, &host);
  p.setDispatchMode(mode);
  p.startScript(script, env);
  p.runToCompletion();
}

TEST(DispatchParity, RandomExpressionsAgreeAcrossDispatchModes) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed);
    blocks::BlockPtr expr = testgen::randomArithmetic(rng, 4);
    for (double x : {1.0, 3.0, 7.0}) {
      blocks::BlockPtr call = callRing(ring(In(expr)), {In(x)});
      Value byId = runExpression(vm::DispatchMode::ById, call);
      Value byString = runExpression(vm::DispatchMode::ByString, call);
      EXPECT_TRUE(byId.equals(byString))
          << "seed=" << seed << " x=" << x << "\n  expr:     "
          << expr->display() << "\n  byId:     " << byId.display()
          << "\n  byString: " << byString.display();
    }
  }
}

TEST(DispatchParity, RandomScriptsAgreeAcrossDispatchModes) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    auto initial = [&](const blocks::EnvPtr& env) {
      env->declare("a", Value(double(seed)));
      env->declare("b", Value(-3.0));
      env->declare("c", Value(0.5));
    };
    Rng rngA(seed);
    blocks::ScriptPtr script = testgen::randomScript(rngA, 8);

    blocks::EnvPtr envById = Environment::make();
    initial(envById);
    runScript(vm::DispatchMode::ById, script, envById);

    blocks::EnvPtr envByString = Environment::make();
    initial(envByString);
    runScript(vm::DispatchMode::ByString, script, envByString);

    for (const char* name : {"a", "b", "c"}) {
      EXPECT_TRUE(envById->get(name).equals(envByString->get(name)))
          << "seed=" << seed << " var=" << name
          << "\n  byId:     " << envById->get(name).display()
          << "\n  byString: " << envByString->get(name).display()
          << "\n  script:\n" << script->display();
    }
  }
}

}  // namespace
}  // namespace psnap::core
