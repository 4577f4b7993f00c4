#include "support/strings.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

namespace psnap::strings {

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string> splitWhitespace(std::string_view text) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    size_t start = i;
    while (i < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    if (i > start) out.emplace_back(text.substr(start, i - start));
  }
  return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string trim(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return std::string(text.substr(begin, end - begin));
}

bool startsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool endsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

std::string replaceAll(std::string_view text, std::string_view from,
                       std::string_view to) {
  if (from.empty()) return std::string(text);
  std::string out;
  out.reserve(text.size());
  size_t start = 0;
  while (true) {
    size_t pos = text.find(from, start);
    if (pos == std::string_view::npos) {
      out += text.substr(start);
      return out;
    }
    out += text.substr(start, pos - start);
    out += to;
    start = pos + from.size();
  }
}

std::string toLower(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

bool isBlank(std::string_view text) {
  for (char c : text) {
    if (!std::isspace(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

bool equalsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

int compareIgnoreCase(std::string_view a, std::string_view b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    const int ca = std::tolower(static_cast<unsigned char>(a[i]));
    const int cb = std::tolower(static_cast<unsigned char>(b[i]));
    if (ca != cb) return ca < cb ? -1 : 1;
  }
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}

uint64_t hashLowered(std::string_view text) {
  // FNV-1a over lowered bytes.
  uint64_t hash = 1469598103934665603ull;
  for (char c : text) {
    hash ^= static_cast<uint64_t>(
        std::tolower(static_cast<unsigned char>(c)));
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string indent(std::string_view text, int spaces) {
  const std::string pad(static_cast<size_t>(spaces), ' ');
  std::string out;
  size_t start = 0;
  while (start <= text.size()) {
    size_t pos = text.find('\n', start);
    std::string_view line = text.substr(
        start, pos == std::string_view::npos ? text.size() - start
                                             : pos - start);
    if (!line.empty()) out += pad;
    out += line;
    if (pos == std::string_view::npos) break;
    out += '\n';
    start = pos + 1;
  }
  return out;
}

std::string formatNumber(double value) {
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0 ? "Infinity" : "-Infinity";
  double rounded = std::round(value);
  if (rounded == value && std::abs(value) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", value);
    return buf;
  }
  // Shortest representation that round-trips.
  for (int precision = 1; precision <= 17; ++precision) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    double parsed = 0;
    if (parseNumber(buf, parsed) && parsed == value) return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

bool parseNumber(std::string_view text, double& out) {
  // Trim as a view; real numbers fit the stack buffer, so the hot path
  // never touches the heap (strtod needs NUL termination, so the bytes
  // are copied somewhere either way).
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  const std::string_view trimmed = text.substr(begin, end - begin);
  if (trimmed.empty()) return false;
  char stack[64];
  std::string heap;
  const char* cstr;
  if (trimmed.size() < sizeof(stack)) {
    std::memcpy(stack, trimmed.data(), trimmed.size());
    stack[trimmed.size()] = '\0';
    cstr = stack;
  } else {
    heap.assign(trimmed);
    cstr = heap.c_str();
  }
  char* parseEnd = nullptr;
  double value = std::strtod(cstr, &parseEnd);
  if (parseEnd != cstr + trimmed.size()) return false;
  out = value;
  return true;
}

Utf8Char utf8At(std::string_view text, size_t pos) {
  const auto byte = [&](size_t i) { return uint8_t(text[pos + i]); };
  const uint8_t lead = byte(0);
  if (lead < 0x80) return {lead, 1};
  // Sequence length and the valid range of the second byte (which rules
  // out overlong forms, surrogates and code points above U+10FFFF).
  size_t length;
  uint8_t low = 0x80, high = 0xbf;
  uint32_t codePoint;
  if (lead >= 0xc2 && lead <= 0xdf) {
    length = 2;
    codePoint = lead & 0x1f;
  } else if (lead >= 0xe0 && lead <= 0xef) {
    length = 3;
    codePoint = lead & 0x0f;
    if (lead == 0xe0) low = 0xa0;
    if (lead == 0xed) high = 0x9f;
  } else if (lead >= 0xf0 && lead <= 0xf4) {
    length = 4;
    codePoint = lead & 0x07;
    if (lead == 0xf0) low = 0x90;
    if (lead == 0xf4) high = 0x8f;
  } else {
    return {lead, 1};
  }
  if (text.size() - pos < length) return {lead, 1};
  for (size_t i = 1; i < length; ++i) {
    const uint8_t next = byte(i);
    if (next < (i == 1 ? low : 0x80) || next > (i == 1 ? high : 0xbf)) {
      return {lead, 1};
    }
    codePoint = (codePoint << 6) | (next & 0x3f);
  }
  return {codePoint, length};
}

size_t utf8Count(std::string_view text) {
  size_t count = 0;
  for (size_t pos = 0; pos < text.size(); pos += utf8At(text, pos).bytes) {
    ++count;
  }
  return count;
}

std::string utf8Encode(long long codePoint) {
  if (codePoint < 0 || codePoint > 0x10ffff ||
      (codePoint >= 0xd800 && codePoint <= 0xdfff)) {
    codePoint = 0xfffd;
  }
  const auto cp = uint32_t(codePoint);
  std::string out;
  if (cp < 0x80) {
    out += char(cp);
  } else if (cp < 0x800) {
    out += char(0xc0 | (cp >> 6));
    out += char(0x80 | (cp & 0x3f));
  } else if (cp < 0x10000) {
    out += char(0xe0 | (cp >> 12));
    out += char(0x80 | ((cp >> 6) & 0x3f));
    out += char(0x80 | (cp & 0x3f));
  } else {
    out += char(0xf0 | (cp >> 18));
    out += char(0x80 | ((cp >> 12) & 0x3f));
    out += char(0x80 | ((cp >> 6) & 0x3f));
    out += char(0x80 | (cp & 0x3f));
  }
  return out;
}

}  // namespace psnap::strings
