// Small string helpers shared by the dataset IO layer and bench printers.
#ifndef AUTOHENS_UTIL_STRING_UTIL_H_
#define AUTOHENS_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace ahg {

// Splits `text` on `delim`, keeping empty fields.
std::vector<std::string> StrSplit(const std::string& text, char delim);

// Removes leading/trailing whitespace.
std::string StrTrim(const std::string& text);

// Whole-field number parsing for text decoders: `text` must be exactly one
// base-10 integer (ParseInt) or one strtod-style double (ParseDouble) — no
// surrounding whitespace, no trailing characters, not empty, and within the
// output type's range (a double that underflows to a subnormal or zero is
// accepted). Returns false and leaves `*out` unchanged otherwise, so every
// decoder can fail closed with a Status instead of throwing or truncating.
bool ParseInt(const std::string& text, int64_t* out);
bool ParseInt(const std::string& text, int* out);
bool ParseDouble(const std::string& text, double* out);

// printf-style formatting into a std::string.
std::string StrFormat(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

// "12.3%" / "4.7x"-style fixed-precision float rendering.
std::string FormatFloat(double value, int precision);

}  // namespace ahg

#endif  // AUTOHENS_UTIL_STRING_UTIL_H_
