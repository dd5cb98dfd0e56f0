#include "util/string_util.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace coskq {

std::vector<std::string> SplitString(std::string_view text, char delimiter) {
  std::vector<std::string> pieces;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find(delimiter, start);
    if (end == std::string_view::npos) {
      end = text.size();
    }
    if (end > start) {
      pieces.emplace_back(text.substr(start, end - start));
    }
    start = end + 1;
  }
  return pieces;
}

std::string JoinStrings(const std::vector<std::string>& pieces,
                        std::string_view separator) {
  std::string result;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) {
      result += separator;
    }
    result += pieces[i];
  }
  return result;
}

std::string_view TrimWhitespace(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  size_t end = text.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::string AsciiToLower(std::string_view text) {
  std::string result(text);
  for (char& c : result) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return result;
}

namespace {

/// Consumes 1..max_digits ASCII digits at text[*pos]; false if none.
bool ConsumeDigits(std::string_view text, size_t* pos, size_t max_digits) {
  const size_t begin = *pos;
  while (*pos < text.size() && *pos - begin < max_digits &&
         text[*pos] >= '0' && text[*pos] <= '9') {
    ++*pos;
  }
  return *pos > begin;
}

/// True iff `text` is a plain decimal: an optional '-', 1–20 integer
/// digits, an optional '.' with 1–30 fraction digits, and an optional
/// exponent of 1–2 digits. Every such value lies well inside the normal
/// double range (no overflow, no subnormal), where std::from_chars and
/// strtod both return the correctly rounded value and never set ERANGE.
bool IsPlainDecimal(std::string_view text) {
  size_t pos = text.size() > 0 && text[0] == '-' ? 1 : 0;
  if (!ConsumeDigits(text, &pos, 20)) {
    return false;
  }
  if (pos < text.size() && text[pos] == '.') {
    ++pos;
    if (!ConsumeDigits(text, &pos, 30)) {
      return false;
    }
  }
  if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
    ++pos;
    if (pos < text.size() && (text[pos] == '-' || text[pos] == '+')) {
      ++pos;
    }
    if (!ConsumeDigits(text, &pos, 2)) {
      return false;
    }
  }
  return pos == text.size();
}

}  // namespace

bool ParseDouble(std::string_view text, double* value) {
  if (text.empty()) {
    return false;
  }
  double parsed = 0.0;
  if (IsPlainDecimal(text)) {
    // The common spelling (every SaveToFile coordinate but the tiniest):
    // ~4x faster than strtod and bit-identical on this grammar.
    std::from_chars(text.data(), text.data() + text.size(), parsed);
    *value = parsed;
    return true;
  }
  // Everything else (hex, '+', inf/nan, leading whitespace, out-of-range)
  // keeps strtod's exact semantics. strtod needs a terminated copy; short
  // fields stay on the stack.
  char stack_buffer[64];
  std::string heap_buffer;
  const char* buffer = stack_buffer;
  if (text.size() < sizeof(stack_buffer)) {
    std::memcpy(stack_buffer, text.data(), text.size());
    stack_buffer[text.size()] = '\0';
  } else {
    heap_buffer.assign(text);
    buffer = heap_buffer.c_str();
  }
  errno = 0;
  char* end = nullptr;
  parsed = std::strtod(buffer, &end);
  if (errno != 0 || end != buffer + text.size()) {
    return false;
  }
  *value = parsed;
  return true;
}

bool ParseUint64(std::string_view text, uint64_t* value) {
  if (text.empty() || text[0] == '-') {
    return false;
  }
  std::string buffer(text);
  errno = 0;
  char* end = nullptr;
  unsigned long long parsed = std::strtoull(buffer.c_str(), &end, 10);
  if (errno != 0 || end != buffer.c_str() + buffer.size()) {
    return false;
  }
  *value = parsed;
  return true;
}

std::string FormatWithCommas(uint64_t n) {
  std::string digits = std::to_string(n);
  std::string result;
  int since_comma = 0;
  for (size_t i = digits.size(); i > 0; --i) {
    result.push_back(digits[i - 1]);
    if (++since_comma == 3 && i > 1) {
      result.push_back(',');
      since_comma = 0;
    }
  }
  std::reverse(result.begin(), result.end());
  return result;
}

std::string FormatDouble(double value, int digits) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", digits, value);
  std::string s(buffer);
  if (s.find('.') != std::string::npos) {
    while (!s.empty() && s.back() == '0') {
      s.pop_back();
    }
    if (!s.empty() && s.back() == '.') {
      s.pop_back();
    }
  }
  return s;
}

std::string FormatMillis(double ms) {
  if (ms >= 1000.0) {
    return FormatDouble(ms / 1000.0, 2) + " s";
  }
  if (ms >= 1.0) {
    return FormatDouble(ms, 2) + " ms";
  }
  return FormatDouble(ms * 1000.0, 1) + " us";
}

}  // namespace coskq
