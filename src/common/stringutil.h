#ifndef RPC_COMMON_STRINGUTIL_H_
#define RPC_COMMON_STRINGUTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace rpc {

/// Splits `text` on `delim`, keeping empty fields ("a,,b" -> 3 fields).
std::vector<std::string> Split(std::string_view text, char delim);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

/// Parses a finite double; returns false on empty/garbage/partial input and
/// on "nan", "inf" or a literal that overflows to infinity.
bool ParseDouble(std::string_view text, double* out);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Joins items with `sep`.
std::string Join(const std::vector<std::string>& items, std::string_view sep);

/// Formats a double with `digits` significant digits, trimming zeros the way
/// table output wants ("0.5000" stays, "1e-12" stays readable).
std::string FormatDouble(double value, int digits = 6);

}  // namespace rpc

#endif  // RPC_COMMON_STRINGUTIL_H_
