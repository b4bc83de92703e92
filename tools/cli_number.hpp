// Checked numeric flag values for the command-line tools. A value with
// trailing junk ("12x"), a sign on an unsigned flag ("-3"), text that is
// not a number at all, or a number outside the target type's range ends
// the program with exit code 2 and a message naming the flag and the text
// — never an uncaught std::sto* exception or a silently truncated value.
#pragma once

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace dbs::cli {

[[noreturn]] inline void bad_number(std::string_view flag,
                                    std::string_view text,
                                    std::string_view why) {
  std::cerr << flag << ": " << why << ", got '" << text << "'\n";
  std::exit(2);
}

/// Parses the whole of `text` into `out` for `flag`, or exits 2. The type
/// of `out` (an integer or floating-point type) sets the accepted range.
template <typename T>
void parse_into(T& out, std::string_view flag, const std::string& text) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  if constexpr (std::is_floating_point_v<T>) {
    // strtod skips leading blanks and accepts "inf"/"nan"; neither is a
    // flag value.
    if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])) != 0)
      bad_number(flag, text, "expected a number");
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size())
      bad_number(flag, text, "expected a number");
    if (errno == ERANGE || !std::isfinite(v))
      bad_number(flag, text, "number out of range");
    out = static_cast<T>(v);
  } else {
    if (std::is_unsigned_v<T> && !text.empty() &&
        (text.front() == '-' || text.front() == '+'))
      bad_number(flag, text, "expected an unsigned integer");
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out);
    if (ec == std::errc::result_out_of_range)
      bad_number(flag, text, "integer out of range");
    if (ec != std::errc{} || ptr != end)
      bad_number(flag, text, "expected an integer");
  }
}

}  // namespace dbs::cli
