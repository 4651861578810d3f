#include "harness.h"

#include <cmath>
#include <cstdio>
#include <cstring>

namespace bench {

uint64_t
Rng::next()
{
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

long long
Rng::range(long long lo, long long hi)
{
    uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<long long>(next() % span);
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * double(next() >> 11) * 0x1.0p-53;
}

long long
Rng::logRange(long long lo, long long hi)
{
    double v = std::exp(uniform(std::log(double(lo)),
                                std::log(double(hi) + 1.0)));
    long long r = static_cast<long long>(v);
    return r < lo ? lo : (r > hi ? hi : r);
}

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

void
Digest::add(uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xffu;
        h_ *= 1099511628211ull;
    }
}

void
Digest::add(double v)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
}

void
Digest::add(const std::string &s)
{
    for (unsigned char c : s) {
        h_ ^= c;
        h_ *= 1099511628211ull;
    }
    add(uint64_t(s.size()));
}

std::string
hex(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

void
require(bool ok, const std::string &what)
{
    if (!ok)
        throw GateError(what);
}

double
positive(double v, const std::string &what)
{
    require(std::isfinite(v) && v > 0.0,
            what + " is not finite and positive (" + std::to_string(v) +
                ")");
    return v;
}

void
near(double a, double b, double rel, const std::string &what)
{
    double scale = std::max(std::fabs(a), std::fabs(b));
    require(std::isfinite(a) && std::isfinite(b) &&
                std::fabs(a - b) <= rel * scale,
            what + ": " + std::to_string(a) + " vs " + std::to_string(b));
}

} // namespace bench
