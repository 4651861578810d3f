#include "hw/precision.h"

#include <algorithm>
#include <cctype>

#include "util/error.h"
#include "util/names.h"

namespace optimus {

// "half" is an alias; precisionName prints the first spelling.
constexpr Named<Precision> kPrecisionNames[] = {
    {"fp32", Precision::FP32}, {"tf32", Precision::TF32},
    {"fp16", Precision::FP16}, {"bf16", Precision::BF16},
    {"fp8", Precision::FP8},   {"fp4", Precision::FP4},
    {"int8", Precision::INT8}, {"half", Precision::FP16},
};

double
precisionBytes(Precision p)
{
    switch (p) {
      case Precision::FP32:
      case Precision::TF32:
        return 4.0;
      case Precision::FP16:
      case Precision::BF16:
        return 2.0;
      case Precision::FP8:
      case Precision::INT8:
        return 1.0;
      case Precision::FP4:
        return 0.5;
    }
    throw ModelError("unknown precision");
}

std::string
precisionName(Precision p)
{
    if (const char *name = nameOf(kPrecisionNames, p))
        return name;
    throw ModelError("unknown precision");
}

Precision
parsePrecision(const std::string &name)
{
    std::string s = name;
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (std::optional<Precision> p = findNamed(kPrecisionNames, s))
        return *p;
    throw ConfigError("unknown precision name: " + name);
}

} // namespace optimus
