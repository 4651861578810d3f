/**
 * @file
 * Name tables: one row per spelling of an enum value or preset, so a
 * name is written once and both lookup directions walk the same rows.
 */

#ifndef OPTIMUS_UTIL_NAMES_H
#define OPTIMUS_UTIL_NAMES_H

#include <cstddef>
#include <optional>
#include <string_view>

namespace optimus {

/** One row of a name table. */
template <class T>
struct Named
{
    const char *name;
    T value;
};

/** The value spelled @p name in @p table, or nullopt. */
template <class T, std::size_t N>
std::optional<T>
findNamed(const Named<T> (&table)[N], std::string_view name)
{
    for (const Named<T> &row : table)
        if (name == row.name)
            return row.value;
    return std::nullopt;
}

/** The first spelling of @p value in @p table, or nullptr. */
template <class T, std::size_t N>
const char *
nameOf(const Named<T> (&table)[N], T value)
{
    for (const Named<T> &row : table)
        if (row.value == value)
            return row.name;
    return nullptr;
}

} // namespace optimus

#endif // OPTIMUS_UTIL_NAMES_H
