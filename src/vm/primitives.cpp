// Handlers for the standard block palette.
//
// Strict reporters receive their evaluated inputs in ctx.inputs; the pure
// ones are the shared rows of vm/pure_reporters.hpp. Control blocks are
// non-strict: they evaluate their own value inputs via Process::evalInput
// and push their C-slot scripts as child frames, yielding once per loop
// iteration exactly as Snap!'s scheduler does (this per-iteration yield is
// what makes the concession-stand timestep counts of paper Fig. 9/10
// deterministic).

#include <algorithm>
#include <cmath>

#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "vm/process.hpp"
#include "vm/pure_reporters.hpp"

namespace psnap::vm {

using blocks::List;
using blocks::ListPtr;
using blocks::Ring;
using blocks::Value;

namespace {

// ---------------------------------------------------------------------------
// registration helpers
// ---------------------------------------------------------------------------

/// Wrap a side-effecting command over evaluated inputs.
template <typename F>
Handler command(F f) {
  return [f](Process& p, Context& c) {
    f(p, c.inputs);
    p.finishCommand();
  };
}

SpriteApi& requireSprite(Process& p, const char* opcode) {
  if (!p.sprite()) {
    throw Error(std::string(opcode) + " requires a sprite");
  }
  return *p.sprite();
}

// ---------------------------------------------------------------------------
// operators
// ---------------------------------------------------------------------------

// Every shared pure reporter, plus the one impure operator.
void registerOperators(PrimitiveTable& t) {
  for (const PureRow& row : pureReporters()) {
    t.add(blocks::opcodeName(blocks::id(row.op)),
          [fn = row.fn](Process& p, Context& c) {
            p.returnValue(fn(c.inputs.data(), c.inputs.size()));
          });
  }
  t.add("reportRandom", [](Process& p, Context& c) {
    // Deterministic per-run RNG so tests and benches are reproducible.
    static thread_local Rng rng(0x5eedULL);
    double lo = c.inputs[0].asNumber();
    double hi = c.inputs[1].asNumber();
    if (lo > hi) std::swap(lo, hi);
    if (lo == std::floor(lo) && hi == std::floor(hi)) {
      p.returnValue(Value(static_cast<double>(rng.between(
          static_cast<int64_t>(lo), static_cast<int64_t>(hi)))));
    } else {
      p.returnValue(Value(rng.uniform(lo, hi)));
    }
  });
}

// ---------------------------------------------------------------------------
// variables
// ---------------------------------------------------------------------------

void registerVariables(PrimitiveTable& t) {
  t.add("reportGetVar", [](Process& p, Context& c) {
    p.returnValue(c.env->get(c.inputs[0].asText()));
  });
  t.add("doSetVar", [](Process& p, Context& c) {
    c.env->set(c.inputs[0].asText(), c.inputs[1]);
    p.finishCommand();
  });
  t.add("doChangeVar", [](Process& p, Context& c) {
    const std::string name = c.inputs[0].asText();
    double current = c.env->get(name).asNumber();
    c.env->set(name, Value(current + c.inputs[1].asNumber()));
    p.finishCommand();
  });
  t.add("doDeclareVariables", [](Process& p, Context& c) {
    for (const Value& name : c.inputs) {
      c.env->declare(name.asText());
    }
    p.finishCommand();
  });
}

// ---------------------------------------------------------------------------
// lists
// ---------------------------------------------------------------------------

void registerLists(PrimitiveTable& t) {
  t.add("doAddToList", command([](Process&, const std::vector<Value>& in) {
          in[1].asList()->add(in[0]);
        }));
  t.add("doDeleteFromList",
        command([](Process&, const std::vector<Value>& in) {
          in[1].asList()->removeAt(
              static_cast<size_t>(in[0].asInteger()));
        }));
  t.add("doInsertInList",
        command([](Process&, const std::vector<Value>& in) {
          in[2].asList()->insertAt(static_cast<size_t>(in[1].asInteger()),
                                   in[0]);
        }));
  t.add("doReplaceInList",
        command([](Process&, const std::vector<Value>& in) {
          in[1].asList()->replaceAt(static_cast<size_t>(in[0].asInteger()),
                                    in[2]);
        }));
}

// ---------------------------------------------------------------------------
// higher-order functions (sequential semantics, paper Sec. 3.1)
// ---------------------------------------------------------------------------

// map and keep call the ring once per item; each call's result lands past
// the block's declared arity. map collects the results, keep the items
// whose result is true.
Handler mapOrKeep(bool keep) {
  return [keep](Process& p, Context& c) {
    if (c.phase == 0) {
      c.phase = 1;
      c.counter = 0;
      c.state = std::make_shared<Value>(Value(List::make()));
    }
    auto result = std::static_pointer_cast<Value>(c.state);
    const ListPtr& list = c.inputs[1].asList();
    if (c.inputs.size() > c.block->arity()) {
      const Value& called = c.inputs.back();
      if (!keep) {
        result->asList()->add(called);
      } else if (called.asBoolean()) {
        result->asList()->add(list->item(static_cast<size_t>(c.counter)));
      }
      c.inputs.pop_back();
      c.collapsedFlags.pop_back();
    }
    if (static_cast<size_t>(c.counter) < list->length()) {
      ++c.counter;
      p.pushRingCall(c.inputs[0].asRing(),
                     {list->item(static_cast<size_t>(c.counter))}, c.env);
      return;
    }
    p.returnValue(*result);
  };
}

void registerHofs(PrimitiveTable& t) {
  t.add("reportMap", mapOrKeep(false));
  t.add("reportKeep", mapOrKeep(true));

  t.add("reportCombine", [](Process& p, Context& c) {
    const size_t arity = c.block->arity();
    const ListPtr& list = c.inputs[0].asList();
    if (c.phase == 0) {
      c.phase = 1;
      if (list->empty()) {
        p.returnValue(Value(0));
        return;
      }
      c.counter = 1;
      c.state = std::make_shared<Value>(list->item(1));
    }
    auto acc = std::static_pointer_cast<Value>(c.state);
    if (c.inputs.size() > arity) {
      *acc = c.inputs.back();
      c.inputs.pop_back();
      c.collapsedFlags.pop_back();
    }
    if (static_cast<size_t>(c.counter) < list->length()) {
      ++c.counter;
      p.pushRingCall(c.inputs[1].asRing(),
                     {*acc, list->item(static_cast<size_t>(c.counter))},
                     c.env);
      return;
    }
    p.returnValue(*acc);
  });

  t.add("doForEach", [](Process& p, Context& c) {
    // Non-strict: evaluate the var name and list inputs ourselves.
    if (c.inputs.size() < 2) {
      p.evalInput(c, c.inputs.size());
      return;
    }
    // Yield *between* iterations (not before the first or after the last)
    // so a loop of N one-frame bodies occupies exactly N frames.
    const ListPtr& list = c.inputs[1].asList();
    if (static_cast<size_t>(c.counter) >= list->length()) {
      p.finishCommand();
      return;
    }
    if (c.phase == 1) {
      c.phase = 0;
      p.retryAfterYield(c);
      return;
    }
    ++c.counter;
    c.phase = 1;
    auto frame = blocks::Environment::make(c.env);
    frame->declare(c.inputs[0].asText(),
                   list->item(static_cast<size_t>(c.counter)));
    p.pushScript(c.block->input(2).script().get(), frame);
  });
}

// ---------------------------------------------------------------------------
// control
// ---------------------------------------------------------------------------

void registerControl(PrimitiveTable& t) {
  t.add("doForever", [](Process& p, Context& c) {
    // First iteration starts immediately; later iterations are separated
    // by one yield each, so the loop body runs once per frame.
    if (c.phase == 0) {
      c.phase = 1;
    } else {
      c.phase = 0;
      p.retryAfterYield(c);
      return;
    }
    p.pushScript(c.block->input(0).script().get(), c.env);
  });

  t.add("doRepeat", [](Process& p, Context& c) {
    if (c.inputs.empty()) {
      p.evalInput(c, 0);
      return;
    }
    if (c.phase == 0) {
      c.phase = 1;
      c.counter = c.inputs[0].asInteger();
    }
    if (c.counter <= 0) {
      p.finishCommand();
      return;
    }
    if (c.phase == 2) {
      // An iteration just finished and more remain: yield first.
      c.phase = 1;
      p.retryAfterYield(c);
      return;
    }
    --c.counter;
    c.phase = 2;
    p.pushScript(c.block->input(1).script().get(), c.env);
  });

  // Snap!'s counting for-loop: `for i = a to b { body }` — the block the
  // C mapping renders as Listing 5's `for (i = 1; i <= len; i++)`.
  t.add("doFor", [](Process& p, Context& c) {
    if (c.inputs.size() < 3) {
      p.evalInput(c, c.inputs.size());
      return;
    }
    if (c.phase == 0) {
      c.phase = 1;
      c.counter = c.inputs[1].asInteger();  // current value
      c.deadline = double(c.inputs[2].asInteger());  // end value
      c.state = std::make_shared<Value>(Value());    // marks init done
    }
    const long long last = static_cast<long long>(c.deadline);
    if (c.counter > last) {
      p.finishCommand();
      return;
    }
    if (c.phase == 2) {
      c.phase = 1;
      p.retryAfterYield(c);
      return;
    }
    auto frame = blocks::Environment::make(c.env);
    frame->declare(c.inputs[0].asText(), Value(c.counter));
    ++c.counter;
    c.phase = 2;
    p.pushScript(c.block->input(3).script().get(), frame);
  });

  t.add("doIf", [](Process& p, Context& c) {
    if (c.phase == 1) {
      p.finishCommand();
      return;
    }
    if (c.inputs.empty()) {
      p.evalInput(c, 0);
      return;
    }
    c.phase = 1;
    if (c.inputs[0].asBoolean()) {
      p.pushScript(c.block->input(1).script().get(), c.env);
    } else {
      p.finishCommand();
    }
  });

  t.add("doIfElse", [](Process& p, Context& c) {
    if (c.phase == 1) {
      p.finishCommand();
      return;
    }
    if (c.inputs.empty()) {
      p.evalInput(c, 0);
      return;
    }
    c.phase = 1;
    p.pushScript(c.inputs[0].asBoolean()
                     ? c.block->input(1).script().get()
                     : c.block->input(2).script().get(),
                 c.env);
  });

  t.add("doUntil", [](Process& p, Context& c) {
    if (c.phase == 1) {
      // An iteration just finished: yield, then re-evaluate the condition.
      c.phase = 0;
      p.retryAfterYield(c);
      return;
    }
    if (c.inputs.empty()) {
      p.evalInput(c, 0);
      return;
    }
    if (c.inputs[0].asBoolean()) {
      p.finishCommand();
      return;
    }
    c.inputs.clear();
    c.collapsedFlags.clear();
    c.phase = 1;
    p.pushScript(c.block->input(1).script().get(), c.env);
  });

  t.add("doWaitUntil", [](Process& p, Context& c) {
    if (c.inputs.empty()) {
      p.evalInput(c, 0);
      return;
    }
    if (c.inputs[0].asBoolean()) {
      p.finishCommand();
      return;
    }
    c.inputs.clear();
    c.collapsedFlags.clear();
    p.retryAfterYield(c);
  });

  t.add("doWait", [](Process& p, Context& c) {
    if (c.phase == 0) {
      c.phase = 1;
      c.deadline = p.host().nowSeconds() + c.inputs[0].asNumber();
      p.retryAfterYield(c);
      return;
    }
    if (p.host().nowSeconds() >= c.deadline) {
      p.finishCommand();
    } else {
      p.retryAfterYield(c);
    }
  });

  // Snap!'s warp: run the body without yielding between iterations, so
  // the whole C-slot completes within one scheduler frame.
  t.add("doWarp", [](Process& p, Context& c) {
    if (c.phase == 0) {
      c.phase = 1;
      c.ownsWarp = true;
      p.enterWarp();
      p.pushScript(c.block->input(0).script().get(), c.env);
      return;
    }
    c.ownsWarp = false;
    p.exitWarp();
    p.finishCommand();
  });

  t.add("doYield", [](Process& p, Context&) {
    p.finishCommand();
    p.pushYield();
  });

  // Our pedagogical CPU-frame block: occupies the process for exactly N
  // scheduler frames (the concession-stand pour animation uses 3). The
  // block completes *within* its final working frame so a busyWork(N)
  // occupies exactly N frames, no trailing completion frame.
  t.add("doBusyWork", [](Process& p, Context& c) {
    if (c.phase == 0) {
      c.phase = 1;
      c.counter = c.inputs[0].asInteger();
    }
    if (c.counter <= 0) {
      p.finishCommand();
      return;
    }
    --c.counter;
    if (c.counter == 0) {
      p.finishCommand();
    } else {
      p.retryAfterYield(c);
    }
  });

  t.add("doReport", [](Process& p, Context& c) {
    p.unwindReport(c.inputs[0]);
  });

  t.add("doStopThis", [](Process& p, Context&) { p.stopThisScript(); });

  t.add("doBroadcast", [](Process& p, Context& c) {
    p.host().broadcast(c.inputs[0].asText());
    p.finishCommand();
  });

  t.add("doBroadcastAndWait", [](Process& p, Context& c) {
    if (c.inputs.empty()) {
      p.evalInput(c, 0);
      return;
    }
    if (c.phase == 0) {
      c.phase = 1;
      c.token = p.host().broadcast(c.inputs[0].asText());
      p.retryAfterYield(c);
      return;
    }
    if (p.host().broadcastFinished(c.token)) {
      p.finishCommand();
    } else {
      p.retryAfterYield(c);
    }
  });

  t.add("evaluate", [](Process& p, Context& c) {
    if (c.phase == 0) {
      c.phase = 1;
      std::vector<Value> args(c.inputs.begin() + 1, c.inputs.end());
      p.pushRingCall(c.inputs[0].asRing(), std::move(args), c.env);
      return;
    }
    Value result = c.inputs.size() > c.block->arity() ? c.inputs.back()
                                                      : Value();
    p.returnValue(std::move(result));
  });

  t.add("doRun", [](Process& p, Context& c) {
    if (c.phase == 0) {
      c.phase = 1;
      std::vector<Value> args(c.inputs.begin() + 1, c.inputs.end());
      p.pushRingCall(c.inputs[0].asRing(), std::move(args), c.env);
      return;
    }
    p.finishCommand();
  });

  t.add("reifyReporter", [](Process& p, Context& c) {
    p.returnValue(Value(blocks::reifyReporter(*c.block, c.env)));
  });

  t.add("reifyScript", [](Process& p, Context& c) {
    p.returnValue(Value(Ring::command(c.block->input(0).script(),
                                      blocks::ringFormals(*c.block), c.env)));
  });

  t.add("createClone", [](Process& p, Context& c) {
    std::string target = c.inputs[0].asText();
    if (strings::toLower(target) == "myself") target.clear();
    p.host().makeClone(p.sprite(), target);
    p.finishCommand();
  });

  t.add("removeClone", [](Process& p, Context&) {
    SpriteApi* sprite = p.sprite();
    if (sprite && sprite->isClone()) {
      p.host().removeClone(sprite);
      p.terminate();
    } else {
      p.finishCommand();
    }
  });
}

// ---------------------------------------------------------------------------
// looks / motion / sensing
// ---------------------------------------------------------------------------

void registerLooksMotion(PrimitiveTable& t) {
  t.add("bubble", [](Process& p, Context& c) {
    const std::string text = c.inputs[0].display();
    p.sayLog().push_back(text);
    if (p.sprite()) p.sprite()->sayBubble(text);
    p.finishCommand();
  });

  t.add("doSayFor", [](Process& p, Context& c) {
    if (c.phase == 0) {
      c.phase = 1;
      const std::string text = c.inputs[0].display();
      p.sayLog().push_back(text);
      if (p.sprite()) p.sprite()->sayBubble(text);
      c.deadline = p.host().nowSeconds() + c.inputs[1].asNumber();
      p.retryAfterYield(c);
      return;
    }
    if (p.host().nowSeconds() >= c.deadline) {
      if (p.sprite()) p.sprite()->sayBubble("");
      p.finishCommand();
    } else {
      p.retryAfterYield(c);
    }
  });

  t.add("doThink", [](Process& p, Context& c) {
    const std::string text = c.inputs[0].display();
    p.sayLog().push_back(text);
    if (p.sprite()) p.sprite()->thinkBubble(text);
    p.finishCommand();
  });

  t.add("doSwitchToCostume", [](Process& p, Context& c) {
    requireSprite(p, "switch to costume").setCostume(c.inputs[0].asText());
    p.finishCommand();
  });
  t.add("show", [](Process& p, Context&) {
    requireSprite(p, "show").setVisible(true);
    p.finishCommand();
  });
  t.add("hide", [](Process& p, Context&) {
    requireSprite(p, "hide").setVisible(false);
    p.finishCommand();
  });
  t.add("reportTouchingSprite", [](Process& p, Context& c) {
    p.returnValue(Value(
        requireSprite(p, "touching").touching(c.inputs[0].asText())));
  });
  t.add("reportCostumeName", [](Process& p, Context& c) {
    (void)c;
    p.returnValue(Value(requireSprite(p, "costume name").costume()));
  });

  t.add("forward", [](Process& p, Context& c) {
    requireSprite(p, "move").moveSteps(c.inputs[0].asNumber());
    p.finishCommand();
  });
  t.add("turn", [](Process& p, Context& c) {
    requireSprite(p, "turn").turnBy(c.inputs[0].asNumber());
    p.finishCommand();
  });
  t.add("turnLeft", [](Process& p, Context& c) {
    requireSprite(p, "turn left").turnBy(-c.inputs[0].asNumber());
    p.finishCommand();
  });
  t.add("setHeading", [](Process& p, Context& c) {
    requireSprite(p, "point in direction").setHeading(c.inputs[0].asNumber());
    p.finishCommand();
  });
  t.add("gotoXY", [](Process& p, Context& c) {
    requireSprite(p, "go to").gotoXY(c.inputs[0].asNumber(),
                                     c.inputs[1].asNumber());
    p.finishCommand();
  });
  t.add("changeXPosition", [](Process& p, Context& c) {
    requireSprite(p, "change x").changeX(c.inputs[0].asNumber());
    p.finishCommand();
  });
  t.add("changeYPosition", [](Process& p, Context& c) {
    requireSprite(p, "change y").changeY(c.inputs[0].asNumber());
    p.finishCommand();
  });
  t.add("xPosition", [](Process& p, Context&) {
    p.returnValue(Value(requireSprite(p, "x position").x()));
  });
  t.add("yPosition", [](Process& p, Context&) {
    p.returnValue(Value(requireSprite(p, "y position").y()));
  });
  t.add("direction", [](Process& p, Context&) {
    p.returnValue(Value(requireSprite(p, "direction").heading()));
  });

  t.add("getTimer", [](Process& p, Context&) {
    p.returnValue(Value(p.host().timerSeconds()));
  });
  t.add("doResetTimer", [](Process& p, Context&) {
    p.host().resetTimer();
    p.finishCommand();
  });

  t.add("reportMaxWorkers", [](Process& p, Context&) {
    p.returnValue(Value(p.host().maxWorkers()));
  });
}

}  // namespace

void registerStandardPrimitives(PrimitiveTable& table) {
  registerOperators(table);
  registerVariables(table);
  registerLists(table);
  registerHofs(table);
  registerControl(table);
  registerLooksMotion(table);
}

}  // namespace psnap::vm
