#include "common/stringutil.h"

#include <cctype>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace rpc {

std::vector<std::string> Split(std::string_view text, char delim) {
  std::vector<std::string> fields;
  size_t start = 0;
  while (true) {
    const size_t pos = text.find(delim, start);
    if (pos == std::string_view::npos) {
      fields.emplace_back(text.substr(start));
      break;
    }
    fields.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return fields;
}

std::string_view Trim(std::string_view text) {
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
  return text.substr(begin, end - begin);
}

bool ParseDouble(std::string_view text, double* out) {
  const std::string_view trimmed = Trim(text);
  if (trimmed.empty()) return false;
  std::string buffer(trimmed);
  char* end = nullptr;
  const double value = std::strtod(buffer.c_str(), &end);
  if (end != buffer.c_str() + buffer.size()) return false;
  // "nan", "inf" and overflowing literals parse, but no caller can use them.
  if (!std::isfinite(value)) return false;
  *out = value;
  return true;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string Join(const std::vector<std::string>& items, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out.append(sep);
    out += items[i];
  }
  return out;
}

std::string FormatDouble(double value, int digits) {
  return StrFormat("%.*g", digits, value);
}

}  // namespace rpc
