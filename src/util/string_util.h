// String helpers shared by the similarity matchers, parsers, and the
// synthetic vocabulary machinery.
#ifndef XSM_UTIL_STRING_UTIL_H_
#define XSM_UTIL_STRING_UTIL_H_

#include <charconv>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace xsm {

/// ASCII lowercase copy.
std::string ToLower(std::string_view s);

/// Removes leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// Splits on a single-character delimiter. Empty fields are kept.
std::vector<std::string> Split(std::string_view s, char delim);

/// Joins with a separator.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// True if `s` ends with `suffix`.
bool EndsWith(std::string_view s, std::string_view suffix);

/// Splits an XML-ish identifier into lowercase word tokens: camelCase,
/// PascalCase, snake_case, kebab-case, dotted and digit boundaries all
/// separate tokens. "authorName-2" -> {"author", "name", "2"}.
std::vector<std::string> TokenizeIdentifier(std::string_view ident);

/// Strict numbers: the whole of `value` must be one number in strtod /
/// strtoll syntax (the syntax atof / atol read), so "0.5x", "ten" and ""
/// are InvalidArgument naming `key` instead of read as a prefix or as 0. A
/// well-formed value means what it always meant; one that overflows (or a
/// real that is not finite) is refused too.
Result<double> ParseReal(const std::string& key, const std::string& value);
Result<long long> ParseInteger(const std::string& key,
                               const std::string& value);

/// Appends `value` in decimal: the digits "%d" / "%zu" print, without a
/// format string or a temporary.
template <typename Int>
void AppendInteger(std::string* out, Int value) {
  char buf[24];  // a 64-bit value and its sign
  const std::to_chars_result r =
      std::to_chars(buf, buf + sizeof(buf), value);
  out->append(buf, r.ptr);
}

/// Appends `value` as at least `width` lowercase hex digits, zero-padded:
/// the digits "%0*llx" prints.
void AppendHex(std::string* out, unsigned long long value, int width);

/// Appends `value` with `precision` decimals: the digits "%.Nf" prints
/// (std::to_chars is specified to round exactly as printf does in the C
/// locale).
void AppendFixed(std::string* out, double value, int precision);

/// printf-style formatting into a std::string.
std::string StringPrintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace xsm

#endif  // XSM_UTIL_STRING_UTIL_H_
