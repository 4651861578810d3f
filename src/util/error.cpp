#include "util/error.h"

namespace optimus {

void
throwNotPositive(double value, std::string_view name)
{
    throw ConfigError(std::string(name) + " must be positive, got " +
                      std::to_string(value));
}

void
throwNotPositive(long long value, std::string_view name)
{
    throw ConfigError(std::string(name) + " must be positive, got " +
                      std::to_string(value));
}

} // namespace optimus
