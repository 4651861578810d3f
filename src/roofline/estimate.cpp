#include "roofline/estimate.h"

namespace optimus {

std::string
boundLevelName(const Device &dev, int bound_level)
{
    if (bound_level < 0)
        return "compute";
    return dev.mem.at(static_cast<size_t>(bound_level)).name;
}

int
bindingLevel(double compute_time, const LevelArray &mem_times)
{
    double worst = compute_time;
    int bound = -1;
    for (size_t i = 0; i < mem_times.size(); ++i) {
        if (mem_times[i] > worst) {
            worst = mem_times[i];
            bound = static_cast<int>(i);
        }
    }
    return bound;
}

void
finalizeEstimate(KernelEstimate &est)
{
    checkConfig(est.bytesPerLevel.size() == est.memTimePerLevel.size(),
                "estimate has inconsistent per-level vectors");
    est.boundLevel = bindingLevel(est.computeTime, est.memTimePerLevel);
    const double worst =
        est.boundLevel < 0
            ? est.computeTime
            : est.memTimePerLevel[static_cast<size_t>(est.boundLevel)];
    est.time = worst + est.overhead;
}

void
accumulateEstimate(KernelEstimate &total, const KernelEstimate &part)
{
    const size_t levels = part.bytesPerLevel.size();
    if (total.bytesPerLevel.size() < levels) {
        total.bytesPerLevel.resize(levels);
        total.memTimePerLevel.resize(levels);
    }
    total.flops += part.flops;
    for (size_t i = 0; i < levels; ++i) {
        total.bytesPerLevel[i] += part.bytesPerLevel[i];
        total.memTimePerLevel[i] += part.memTimePerLevel[i];
    }
    total.computeTime += part.computeTime;
    total.overhead += part.overhead;
    // Aggregate time is additive (kernels run back to back).
    total.time += part.time;
}

KernelEstimate
combineEstimates(const std::string &label, const KernelEstimate &a,
                 const KernelEstimate &b)
{
    KernelEstimate out;
    out.kernel = label;
    accumulateEstimate(out, a);
    accumulateEstimate(out, b);
    // The bound label reports the largest aggregated component.
    out.boundLevel = bindingLevel(out.computeTime, out.memTimePerLevel);
    return out;
}

} // namespace optimus
