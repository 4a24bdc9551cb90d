#ifndef DIPBENCH_COMMON_STRING_UTIL_H_
#define DIPBENCH_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dipbench {

/// Splits `input` at every occurrence of `sep`; keeps empty pieces.
std::vector<std::string> StrSplit(std::string_view input, char sep);

/// Joins `parts` with `sep` between consecutive elements.
std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view StrTrim(std::string_view input);

/// ASCII lower-casing.
std::string StrLower(std::string_view input);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Appends `input` to `out` with the five XML special characters
/// (& < > " ') escaped.
void AppendXmlEscaped(std::string_view input, std::string* out);
/// The number of bytes AppendXmlEscaped appends for `input`.
size_t XmlEscapedSize(std::string_view input);

/// Appends the UTF-8 encoding of a Unicode scalar value (at most U+10FFFF,
/// not a surrogate) to `out`.
void AppendUtf8(uint32_t code_point, std::string* out);

/// RFC-4180 CSV field escaping: fields containing a comma, double quote,
/// CR or LF are wrapped in double quotes with embedded quotes doubled;
/// all other fields pass through unchanged.
std::string CsvEscape(std::string_view field);

}  // namespace dipbench

#endif  // DIPBENCH_COMMON_STRING_UTIL_H_
