/**
 * @file
 * Kernel-level performance estimate returned by the roofline engines.
 *
 * Every kernel (GEMM, GEMV, stream op, collective) is summarized by
 * its FLOP count, per-memory-level traffic, per-resource times, and
 * the resource that binds it — the quantity Tables 4 and Figs. 7/8 of
 * the paper report.
 */

#ifndef OPTIMUS_ROOFLINE_ESTIMATE_H
#define OPTIMUS_ROOFLINE_ESTIMATE_H

#include <array>
#include <cstddef>
#include <initializer_list>
#include <string>

#include "hw/device.h"
#include "util/error.h"

namespace optimus {

/**
 * Per-memory-level values of one estimate, stored inline. A device
 * has at most kMaxMemoryLevels levels (Device::validate), so building,
 * copying and summing estimates never touches the heap. Offers the
 * subset of the std::vector API the estimators use.
 */
class LevelArray
{
  public:
    using value_type = double;
    using size_type = std::size_t;
    using iterator = double *;
    using const_iterator = const double *;

    LevelArray() = default;
    LevelArray(std::initializer_list<double> values)
    {
        checkSize(values.size());
        size_ = values.size();
        std::size_t i = 0;
        for (double v : values)
            values_[i++] = v;
    }

    /** Replace the contents with @p n copies of @p value. */
    void
    assign(std::size_t n, double value)
    {
        checkSize(n);
        size_ = n;
        for (std::size_t i = 0; i < n; ++i)
            values_[i] = value;
    }

    /** Grow (zero-filling) or shrink to @p n values. */
    void
    resize(std::size_t n)
    {
        checkSize(n);
        for (std::size_t i = size_; i < n; ++i)
            values_[i] = 0.0;
        size_ = n;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    double &operator[](std::size_t i) { return values_[i]; }
    double operator[](std::size_t i) const { return values_[i]; }

    double *begin() { return values_.data(); }
    double *end() { return values_.data() + size_; }
    const double *begin() const { return values_.data(); }
    const double *end() const { return values_.data() + size_; }

    friend bool
    operator==(const LevelArray &a, const LevelArray &b)
    {
        if (a.size_ != b.size_)
            return false;
        for (std::size_t i = 0; i < a.size_; ++i)
            if (!(a.values_[i] == b.values_[i]))
                return false;
        return true;
    }

  private:
    static void
    checkSize(std::size_t n)
    {
        checkConfig(n <= kMaxMemoryLevels,
                    "device has more memory levels than a kernel "
                    "estimate holds");
    }

    std::array<double, kMaxMemoryLevels> values_{};
    std::size_t size_ = 0;
};

/**
 * Canonical name of a binding resource: "compute" for @p bound_level
 * -1, otherwise the device's memory-level name ("DRAM", "L2", ...).
 *
 * Every human-readable bound string in the code base — Table 4's
 * GemmBoundRow::boundType, the roofline report, trace spans — goes
 * through this single function so the spellings can never diverge
 * between outputs.
 */
std::string boundLevelName(const Device &dev, int bound_level);

/**
 * Result of evaluating one kernel on one device.
 *
 * boundLevel identifies the binding resource: -1 means compute-bound,
 * a non-negative value indexes Device::mem (0 = DRAM-bound, 1 =
 * L2-bound, ...).
 */
struct KernelEstimate
{
    std::string kernel;               ///< label, e.g. "QK^T"
    double flops = 0.0;               ///< arithmetic work
    LevelArray bytesPerLevel;         ///< traffic per memory level
    double computeTime = 0.0;         ///< FLOPs / effective throughput
    LevelArray memTimePerLevel;       ///< per-level transfer time
    double overhead = 0.0;            ///< kernel-launch overhead
    double time = 0.0;                ///< total = max(...) + overhead
    int boundLevel = -1;              ///< -1 compute, else mem index

    /** True when the kernel is bound by arithmetic throughput. */
    bool computeBound() const { return boundLevel < 0; }

    /** True when bound specifically by DRAM bandwidth. */
    bool dramBound() const { return boundLevel == 0; }

    /** Name of the binding resource ("compute", "DRAM", "L2", ...). */
    std::string
    boundName(const Device &dev) const
    {
        return boundLevelName(dev, boundLevel);
    }

    /** Arithmetic intensity against DRAM traffic (FLOP/byte). */
    double
    dramIntensity() const
    {
        if (bytesPerLevel.empty() || bytesPerLevel[0] == 0.0)
            return 0.0;
        return flops / bytesPerLevel[0];
    }
};

/**
 * The binding resource of a kernel: -1 (compute) unless some level's
 * time in @p mem_times exceeds @p compute_time, else the index of the
 * largest level time; the first of equal maxima wins. The one bound
 * pick behind finalizeEstimate, combineEstimates and evaluateOps.
 */
int bindingLevel(double compute_time, const LevelArray &mem_times);

/**
 * Pick the binding resource and fill time/boundLevel from the
 * component times already stored in @p est.
 */
void finalizeEstimate(KernelEstimate &est);

/**
 * Add @p part's FLOPs, per-level traffic and times, compute time,
 * overhead and time into @p total, growing total's levels with zeros
 * if @p part has more. Leaves total's label and bound alone: an
 * aggregate picks its bound once, from the sums (bindingLevel).
 */
void accumulateEstimate(KernelEstimate &total, const KernelEstimate &part);

/** Sum of two estimates (used to aggregate kernels into phases). */
KernelEstimate combineEstimates(const std::string &label,
                                const KernelEstimate &a,
                                const KernelEstimate &b);

} // namespace optimus

#endif // OPTIMUS_ROOFLINE_ESTIMATE_H
