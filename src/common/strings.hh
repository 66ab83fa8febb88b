/**
 * @file
 * Small string helpers shared by the enum-name parsers.
 */

#ifndef KAGURA_COMMON_STRINGS_HH
#define KAGURA_COMMON_STRINGS_HH

#include <cctype>
#include <string_view>

namespace kagura
{

/** ASCII case-insensitive equality (config and CLI spellings). */
inline bool
iequals(std::string_view a, std::string_view b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::tolower(static_cast<unsigned char>(a[i])) !=
            std::tolower(static_cast<unsigned char>(b[i])))
            return false;
    }
    return true;
}

} // namespace kagura

#endif // KAGURA_COMMON_STRINGS_HH
