#include "host_speed.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstddef>
#include <map>
#include <memory_resource>
#include <string>

#include "harness.h"

namespace bench {

namespace {

constexpr double kWindowMs = 1000.0;

double
medianOf(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

volatile double g_sink = 0.0;

/**
 * The kernel allocates from its own fixed arena, never from the global
 * heap, so the heap state a workload leaves behind cannot move it.
 */
alignas(64) std::byte g_arena[4 << 20];

/** String formatting, small allocations, ordered-map inserts, a walk. */
void
kernel()
{
    std::pmr::monotonic_buffer_resource arena(
        g_arena, sizeof g_arena, std::pmr::null_memory_resource());
    std::pmr::map<std::pmr::string, double> m(&arena);
    char buf[48];
    for (int i = 0; i < 3000; ++i) {
        std::snprintf(buf, sizeof buf, "k%d|%.17g;", (i * 7919) % 3001,
                      i * 0.37);
        m.emplace(buf, double(i));
    }
    double s = 0.0;
    for (const auto &kv : m)
        s += kv.second + double(kv.first.size());
    g_sink = s;
}

} // namespace

double
HostSpeed::kernelMs()
{
    // The first pass absorbs what the previous call left behind in the
    // caches; only the second is timed.
    kernel();
    Clock::time_point t0 = Clock::now();
    kernel();
    return msSince(t0);
}

void
HostSpeed::maybeSample(double t_ms)
{
    if (t_ms - last_ >= kSampleEveryMs)
        sample(t_ms);
}

void
HostSpeed::sample(double t_ms)
{
    samples_.emplace_back(t_ms, kernelMs());
    last_ = t_ms;
}

double
HostSpeed::factor(double t_ms) const
{
    std::vector<double> near;
    const std::pair<double, double> *closest = nullptr;
    for (const auto &s : samples_) {
        if (std::fabs(s.first - t_ms) <= kWindowMs)
            near.push_back(s.second);
        if (closest == nullptr ||
            std::fabs(s.first - t_ms) < std::fabs(closest->first - t_ms))
            closest = &s;
    }
    if (near.empty())
        near.push_back(closest->second);
    return kReferenceMs / medianOf(near);
}

double
HostSpeed::overallFactor() const
{
    std::vector<double> v;
    for (const auto &s : samples_)
        v.push_back(s.second);
    return kReferenceMs / medianOf(v);
}

} // namespace bench
