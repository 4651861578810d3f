#include "util/error.h"

namespace optimus {

void
checkPositive(double value, const std::string &name)
{
    if (!(value > 0.0))
        throw ConfigError(name + " must be positive, got " +
                          std::to_string(value));
}

void
checkPositive(long long value, const std::string &name)
{
    if (value <= 0)
        throw ConfigError(name + " must be positive, got " +
                          std::to_string(value));
}

} // namespace optimus
