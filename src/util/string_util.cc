#include "util/string_util.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace ahg {

std::vector<std::string> StrSplit(const std::string& text, char delim) {
  std::vector<std::string> parts;
  std::string current;
  for (char c : text) {
    if (c == delim) {
      parts.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  parts.push_back(current);
  return parts;
}

std::string StrTrim(const std::string& text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin])))
    ++begin;
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1])))
    --end;
  return text.substr(begin, end - begin);
}

namespace {

// strtoll/strtod skip leading whitespace; a whole field may not have any.
bool StartsLikeNumber(const std::string& text) {
  return !text.empty() && !std::isspace(static_cast<unsigned char>(text[0]));
}

}  // namespace

bool ParseInt(const std::string& text, int64_t* out) {
  if (!StartsLikeNumber(text)) return false;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (errno == ERANGE || end != text.c_str() + text.size()) return false;
  *out = v;
  return true;
}

bool ParseInt(const std::string& text, int* out) {
  int64_t v = 0;
  if (!ParseInt(text, &v) || v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

bool ParseDouble(const std::string& text, double* out) {
  if (!StartsLikeNumber(text)) return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) return false;
  if (errno == ERANGE && std::isinf(v)) return false;
  *out = v;
  return true;
}

std::string StrFormat(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  const int size = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  std::string out(size > 0 ? size : 0, '\0');
  if (size > 0) {
    std::vsnprintf(out.data(), out.size() + 1, format, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string FormatFloat(double value, int precision) {
  return StrFormat("%.*f", precision, value);
}

}  // namespace ahg
