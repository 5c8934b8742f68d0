#include "util/string_util.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <system_error>

namespace xsm {

std::string ToLower(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    out.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> Split(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::vector<std::string> TokenizeIdentifier(std::string_view ident) {
  std::vector<std::string> tokens;
  std::string current;
  auto flush = [&] {
    if (!current.empty()) {
      tokens.push_back(current);
      current.clear();
    }
  };
  for (size_t i = 0; i < ident.size(); ++i) {
    unsigned char c = static_cast<unsigned char>(ident[i]);
    if (!std::isalnum(c)) {
      flush();  // Separator: _ - . : etc.
      continue;
    }
    if (std::isupper(c)) {
      // Upper char starts a new token unless we are inside an acronym run
      // (previous char also upper and next is not lower).
      bool prev_upper =
          i > 0 && std::isupper(static_cast<unsigned char>(ident[i - 1]));
      bool next_lower =
          i + 1 < ident.size() &&
          std::islower(static_cast<unsigned char>(ident[i + 1]));
      if (!prev_upper || next_lower) flush();
    } else if (std::isdigit(c)) {
      bool prev_digit =
          i > 0 && std::isdigit(static_cast<unsigned char>(ident[i - 1]));
      if (!prev_digit) flush();
    } else {
      // Lowercase following a digit starts a new token.
      bool prev_digit =
          i > 0 && std::isdigit(static_cast<unsigned char>(ident[i - 1]));
      if (prev_digit) flush();
    }
    current.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  flush();
  return tokens;
}

std::string StringPrintf(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  int needed = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  }
  va_end(ap2);
  return out;
}

Result<double> ParseReal(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (value.empty() || end != value.c_str() + value.size() ||
      !std::isfinite(parsed)) {
    return Status::InvalidArgument(key + " must be a finite number, got '" +
                                   value + "'");
  }
  return parsed;
}

Result<long long> ParseInteger(const std::string& key,
                               const std::string& value) {
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(value.c_str(), &end, 10);
  if (value.empty() || end != value.c_str() + value.size() ||
      errno == ERANGE) {
    return Status::InvalidArgument(key + " must be a 64-bit integer, got '" +
                                   value + "'");
  }
  return parsed;
}

void AppendHex(std::string* out, unsigned long long value, int width) {
  char buf[16];  // a 64-bit value
  const std::to_chars_result r =
      std::to_chars(buf, buf + sizeof(buf), value, 16);
  const int digits = static_cast<int>(r.ptr - buf);
  if (width > digits) out->append(static_cast<size_t>(width - digits), '0');
  out->append(buf, r.ptr);
}

void AppendFixed(std::string* out, double value, int precision) {
  // DBL_MAX has 309 integer digits; with its sign, the point and up to 17
  // decimals it fits. Only a larger precision takes the printf path.
  char buf[352];
  const std::to_chars_result r =
      std::to_chars(buf, buf + sizeof(buf), value, std::chars_format::fixed,
                    precision);
  if (r.ec != std::errc()) {
    *out += StringPrintf("%.*f", precision, value);
    return;
  }
  out->append(buf, r.ptr);
}

}  // namespace xsm
