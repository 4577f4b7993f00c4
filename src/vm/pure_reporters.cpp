#include "vm/pure_reporters.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace psnap::vm {

using blocks::List;
using blocks::ListPtr;
using blocks::Op;
using blocks::Value;

namespace {

constexpr double kPi = 3.14159265358979323846;

// Snap! ordering: numeric when both sides look numeric, else
// case-insensitive text.
bool lessThanValues(const Value& a, const Value& b) {
  double an, bn;
  if (a.numericValue(an) && b.numericValue(bn)) return an < bn;
  std::string leftOwned, rightOwned;
  const std::string_view left =
      a.isText() ? a.textView() : std::string_view(leftOwned = a.display());
  const std::string_view right =
      b.isText() ? b.textView() : std::string_view(rightOwned = b.display());
  return strings::compareIgnoreCase(left, right) < 0;
}

Value monadic(const Value* in, size_t) {
  const std::string fn = strings::toLower(in[0].asText());
  const double x = in[1].asNumber();
  if (fn == "sqrt") {
    if (x < 0) throw Error("sqrt of a negative number");
    return Value(std::sqrt(x));
  }
  if (fn == "abs") return Value(std::fabs(x));
  if (fn == "floor") return Value(std::floor(x));
  if (fn == "ceiling") return Value(std::ceil(x));
  if (fn == "sin") return Value(std::sin(x * kPi / 180.0));
  if (fn == "cos") return Value(std::cos(x * kPi / 180.0));
  if (fn == "tan") return Value(std::tan(x * kPi / 180.0));
  if (fn == "asin") return Value(std::asin(x) * 180.0 / kPi);
  if (fn == "acos") return Value(std::acos(x) * 180.0 / kPi);
  if (fn == "atan") return Value(std::atan(x) * 180.0 / kPi);
  if (fn == "ln") {
    if (x <= 0) throw Error("ln of a non-positive number");
    return Value(std::log(x));
  }
  if (fn == "log") {
    if (x <= 0) throw Error("log of a non-positive number");
    return Value(std::log10(x));
  }
  if (fn == "e^") return Value(std::exp(x));
  if (fn == "10^") return Value(std::pow(10.0, x));
  throw Error("unknown monadic function \"" + fn + "\"");
}

Value split(const Value* in, size_t) {
  const std::string text = in[0].asText();
  const std::string sep = in[1].asText();
  std::vector<std::string> parts;
  if (sep == "whitespace" || sep == "word" || sep.empty()) {
    parts = strings::splitWhitespace(text);
  } else if (sep == "letter") {
    for (char ch : text) parts.emplace_back(1, ch);
  } else if (sep == "line") {
    parts = strings::split(text, '\n');
  } else if (sep.size() == 1) {
    parts = strings::split(text, sep[0]);
  } else {
    size_t start = 0, pos;
    while ((pos = text.find(sep, start)) != std::string::npos) {
      parts.push_back(text.substr(start, pos - start));
      start = pos + sep.size();
    }
    parts.push_back(text.substr(start));
  }
  auto out = List::make();
  for (std::string& part : parts) out->add(Value(std::move(part)));
  return Value(out);
}

constexpr PureRow kRows[] = {
    // --- arithmetic ---------------------------------------------------------
    {Op::reportSum, [](const Value* in, size_t) {
      return Value(in[0].asNumber() + in[1].asNumber());
    }},
    {Op::reportDifference, [](const Value* in, size_t) {
      return Value(in[0].asNumber() - in[1].asNumber());
    }},
    {Op::reportProduct, [](const Value* in, size_t) {
      return Value(in[0].asNumber() * in[1].asNumber());
    }},
    {Op::reportQuotient, [](const Value* in, size_t) {
      const double divisor = in[1].asNumber();
      if (divisor == 0) throw Error("division by zero");
      return Value(in[0].asNumber() / divisor);
    }},
    {Op::reportModulus, [](const Value* in, size_t) {
      const double divisor = in[1].asNumber();
      if (divisor == 0) throw Error("modulus by zero");
      double result = std::fmod(in[0].asNumber(), divisor);
      // Snap! mod result has the sign of the divisor.
      if (result != 0 && ((result < 0) != (divisor < 0))) result += divisor;
      return Value(result);
    }},
    {Op::reportPower, [](const Value* in, size_t) {
      return Value(std::pow(in[0].asNumber(), in[1].asNumber()));
    }},
    {Op::reportRound, [](const Value* in, size_t) {
      return Value(std::round(in[0].asNumber()));
    }},
    {Op::reportMonadic, monadic},

    // --- comparison / logic -------------------------------------------------
    {Op::reportEquals,
     [](const Value* in, size_t) { return Value(in[0].equals(in[1])); }},
    {Op::reportLessThan, [](const Value* in, size_t) {
      return Value(lessThanValues(in[0], in[1]));
    }},
    {Op::reportGreaterThan, [](const Value* in, size_t) {
      return Value(lessThanValues(in[1], in[0]));
    }},
    {Op::reportAnd, [](const Value* in, size_t) {
      return Value(in[0].asBoolean() && in[1].asBoolean());
    }},
    {Op::reportOr, [](const Value* in, size_t) {
      return Value(in[0].asBoolean() || in[1].asBoolean());
    }},
    {Op::reportNot,
     [](const Value* in, size_t) { return Value(!in[0].asBoolean()); }},
    {Op::reportIfElse, [](const Value* in, size_t) -> Value {
      return in[0].asBoolean() ? in[1] : in[2];
    }},

    // --- text ---------------------------------------------------------------
    {Op::reportJoinWords, [](const Value* in, size_t n) {
      std::string out;
      for (size_t i = 0; i < n; ++i) out += in[i].asText();
      return Value(out);
    }},
    {Op::reportLetter, [](const Value* in, size_t) {
      const std::string text = in[1].asText();
      const long long index = in[0].asInteger();
      if (index < 1 || static_cast<size_t>(index) > text.size()) {
        return Value(std::string());
      }
      return Value(std::string(1, text[static_cast<size_t>(index - 1)]));
    }},
    {Op::reportStringSize,
     [](const Value* in, size_t) { return Value(in[0].asText().size()); }},
    {Op::reportUnicode, [](const Value* in, size_t) {
      const std::string text = in[0].asText();
      if (text.empty()) throw Error("unicode of empty text");
      return Value(static_cast<double>(static_cast<unsigned char>(text[0])));
    }},
    {Op::reportUnicodeAsLetter, [](const Value* in, size_t) {
      return Value(
          std::string(1, static_cast<char>(in[0].asInteger() & 0xff)));
    }},
    {Op::reportSplit, split},
    {Op::reportIsA, [](const Value* in, size_t) {
      const std::string type = strings::toLower(in[1].asText());
      return Value(type == blocks::valueKindName(in[0].kind()));
    }},
    {Op::reportIdentity,
     [](const Value* in, size_t) -> Value { return in[0]; }},

    // --- lists --------------------------------------------------------------
    {Op::reportNewList, [](const Value* in, size_t n) {
      auto list = List::make();
      for (size_t i = 0; i < n; ++i) list->add(in[i]);
      return Value(list);
    }},
    {Op::reportListItem, [](const Value* in, size_t) -> Value {
      const long long index = in[0].asInteger();
      const ListPtr& list = in[1].asList();
      if (index < 1) {
        throw IndexError("item " + std::to_string(index) + " of a list");
      }
      return list->item(static_cast<size_t>(index));
    }},
    {Op::reportListLength,
     [](const Value* in, size_t) { return Value(in[0].asList()->length()); }},
    {Op::reportListContainsItem, [](const Value* in, size_t) {
      return Value(in[0].asList()->contains(in[1]));
    }},
    {Op::reportListIndex, [](const Value* in, size_t) {
      const ListPtr& list = in[1].asList();
      for (size_t i = 1; i <= list->length(); ++i) {
        if (list->item(i).equals(in[0])) return Value(i);
      }
      return Value(0);
    }},
    {Op::reportCONS, [](const Value* in, size_t) {
      auto out = List::make();
      out->add(in[0]);
      for (const Value& v : in[1].asList()->items()) out->add(v);
      return Value(out);
    }},
    {Op::reportCDR, [](const Value* in, size_t) {
      const ListPtr& list = in[0].asList();
      if (list->empty()) throw IndexError("all but first of empty list");
      auto out = List::make();
      for (size_t i = 2; i <= list->length(); ++i) out->add(list->item(i));
      return Value(out);
    }},
    {Op::reportNumbers, [](const Value* in, size_t) {
      const long long lo = in[0].asInteger();
      const long long hi = in[1].asInteger();
      auto out = List::make();
      if (lo <= hi) {
        for (long long v = lo; v <= hi; ++v) out->add(Value(v));
      } else {
        for (long long v = lo; v >= hi; --v) out->add(Value(v));
      }
      return Value(out);
    }},
    {Op::reportSorted, [](const Value* in, size_t) {
      auto out = List::make(in[0].asList()->items());
      auto& items = out->mutableItems();
      std::stable_sort(items.begin(), items.end(), lessThanValues);
      return Value(out);
    }},
};

constexpr auto kById = [] {
  std::array<PureReporter, blocks::kBuiltinOpcodeCount> byId{};
  for (const PureRow& row : kRows) byId[blocks::id(row.op)] = row.fn;
  return byId;
}();

}  // namespace

std::span<const PureRow> pureReporters() { return kRows; }

PureReporter findPureReporter(blocks::OpcodeId id) {
  return id < kById.size() ? kById[id] : nullptr;
}

}  // namespace psnap::vm
