#ifndef RSTORE_COMMON_STRING_UTIL_H_
#define RSTORE_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace rstore {

/// printf-style formatting into a std::string.
std::string StringPrintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// "1.5 KB", "3.2 MB", ... human-readable byte counts for reports.
std::string HumanBytes(uint64_t bytes);

/// "12.3 ms" / "4.56 s" human-readable durations from seconds.
std::string HumanDuration(double seconds);

/// Splits on a single character; empty tokens are preserved.
std::vector<std::string> SplitString(const std::string& s, char sep);

/// Joins with a separator.
std::string JoinStrings(const std::vector<std::string>& parts,
                        const std::string& sep);

/// `s` escaped for the inside of a JSON string literal (the quotes are the
/// caller's): quote and backslash get a backslash, backspace, form feed,
/// newline, return and tab their short escapes, and other control bytes a
/// four-digit unicode escape. The exporters escape code-controlled names
/// too, so their machine-readable output always parses.
std::string JsonEscape(std::string_view s);

}  // namespace rstore

#endif  // RSTORE_COMMON_STRING_UTIL_H_
