/**
 * @file
 * Strict number parsing shared by the command-line and line-protocol
 * parsers: the whole token must be a number, and in range.
 */

#ifndef HYQSAT_UTIL_PARSE_H
#define HYQSAT_UTIL_PARSE_H

#include <charconv>
#include <limits>
#include <string_view>

namespace hyqsat {

/** Parse all of @p text as a number in [@p lo, @p hi] into @p out. */
template <class T>
bool
parseNumber(std::string_view text, T lo, T hi, T &out)
{
    T value{};
    const char *end = text.data() + text.size();
    const auto res = std::from_chars(text.data(), end, value);
    // Written so that a NaN is out of every range.
    if (res.ec != std::errc() || res.ptr != end ||
        !(value >= lo && value <= hi))
        return false;
    out = value;
    return true;
}

/** parseNumber over the whole range of T. */
template <class T>
bool
parseNumber(std::string_view text, T &out)
{
    return parseNumber(text, std::numeric_limits<T>::lowest(),
                       std::numeric_limits<T>::max(), out);
}

} // namespace hyqsat

#endif // HYQSAT_UTIL_PARSE_H
