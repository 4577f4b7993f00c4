// Small string helpers used by the block specs, the code generator, and the
// workload generators. Kept dependency-free.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace psnap::strings {

/// Split `text` on `sep`, keeping empty fields.
std::vector<std::string> split(std::string_view text, char sep);

/// Split on any run of whitespace, dropping empty fields (word tokenizer).
std::vector<std::string> splitWhitespace(std::string_view text);

/// Join `parts` with `sep` between elements.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Trim ASCII whitespace from both ends.
std::string trim(std::string_view text);

/// True if `text` starts with `prefix`.
bool startsWith(std::string_view text, std::string_view prefix);

/// True if `text` ends with `suffix`.
bool endsWith(std::string_view text, std::string_view suffix);

/// Replace every occurrence of `from` in `text` with `to`.
std::string replaceAll(std::string_view text, std::string_view from,
                       std::string_view to);

/// Lower-case ASCII copy.
std::string toLower(std::string_view text);

/// True if `text` is empty or all ASCII whitespace (no allocation).
bool isBlank(std::string_view text);

/// Case-insensitive (ASCII) equality without building lowered copies.
bool equalsIgnoreCase(std::string_view a, std::string_view b);

/// Three-way case-insensitive (ASCII) comparison. Orders exactly like
/// `toLower(a) <=> toLower(b)` over unsigned bytes, without allocating.
int compareIgnoreCase(std::string_view a, std::string_view b);

/// FNV-1a hash over the lowered (ASCII) bytes of `text`. Equal up to case
/// means equal hash; used for case-insensitive sharding.
uint64_t hashLowered(std::string_view text);

/// Indent every line of `text` by `spaces` spaces (used by codegen when
/// substituting a script into a C-slot placeholder).
std::string indent(std::string_view text, int spaces);

/// Format a double the way Snap! displays it: integers without a decimal
/// point, otherwise shortest round-trip representation.
std::string formatNumber(double value);

/// Parse a double; returns false when `text` is not numeric.
bool parseNumber(std::string_view text, double& out);

/// One character of UTF-8 text: its code point and its length in bytes.
struct Utf8Char {
  uint32_t codePoint;
  size_t bytes;
};

/// The character starting at byte `pos` (< text.size()). A byte that does
/// not start a well-formed sequence (stray continuation, overlong form,
/// surrogate, truncated tail) is one character of its own whose code
/// point is the byte's value, so every byte belongs to exactly one
/// character and decoding never reads past the end of `text`.
Utf8Char utf8At(std::string_view text, size_t pos);

/// Number of characters in `text` (see utf8At).
size_t utf8Count(std::string_view text);

/// UTF-8 encoding of `codePoint`; U+FFFD when it is not a Unicode scalar
/// value (negative, a surrogate, or above U+10FFFF).
std::string utf8Encode(long long codePoint);

}  // namespace psnap::strings
