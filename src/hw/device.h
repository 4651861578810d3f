/**
 * @file
 * High-level device abstraction.
 *
 * This is the paper's "architecture abstraction layer" (Sec. 3.1): a
 * device is described only by the coarse performance drivers the
 * prediction engine needs — matrix/vector compute throughput per
 * precision and a memory hierarchy with per-level capacity and
 * bandwidth — so modern GPUs can be described without proprietary
 * microarchitecture detail. A device can be written down directly
 * (presets.h) or synthesized from technology parameters by the uArch
 * engine (tech/uarch.h).
 */

#ifndef OPTIMUS_HW_DEVICE_H
#define OPTIMUS_HW_DEVICE_H

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "hw/precision.h"

namespace optimus {

/**
 * Most memory levels a device may have. Every preset has three (DRAM,
 * L2/CMEM, SMEM/VMEM); the bound lets kernel estimates keep their
 * per-level values inline (LevelArray in roofline/estimate.h).
 */
inline constexpr std::size_t kMaxMemoryLevels = 4;

/**
 * One level of the on/off-chip memory hierarchy.
 *
 * Levels are ordered from the farthest (DRAM, index 0) to the
 * innermost scratch (shared memory / L1). The hierarchical roofline
 * computes traffic and time per level.
 */
struct MemoryLevel
{
    std::string name;          ///< "DRAM", "L2", "SMEM", ...
    double capacity = 0.0;     ///< bytes
    double bandwidth = 0.0;    ///< bytes/s, peak
    double utilization = 1.0;  ///< achievable fraction for streaming
};

/**
 * A single accelerator (GPU/TPU/custom) as seen by the model.
 */
struct Device
{
    std::string name;

    /** Matrix-engine (tensor core) peak throughput per precision. */
    std::map<Precision, double> matrixThroughput;
    /** Vector-engine (CUDA core / VPU) peak throughput per precision. */
    std::map<Precision, double> vectorThroughput;

    /**
     * Memory hierarchy, index 0 = DRAM, last = innermost scratch; at
     * most kMaxMemoryLevels levels.
     */
    std::vector<MemoryLevel> mem;

    /**
     * Ceiling on achievable matrix-engine efficiency for large
     * compute-bound GEMMs (calibration knob, Sec. "Calibration" of
     * DESIGN.md). Typical measured value on A100-class parts ~0.85,
     * approached only for large reduction dimensions (see gemmKHalf).
     */
    double matrixMaxEfficiency = 0.85;

    /**
     * Reduction-dimension half-saturation constant: the achieved
     * matrix efficiency is matrixMaxEfficiency * k / (k + gemmKHalf),
     * modeling prologue/epilogue and mainloop amortization. Measured
     * cuBLAS behaviour: small-k GEMMs (attention scores, k = head
     * dim) run far below peak; k in the tens of thousands approaches
     * the ceiling.
     */
    double gemmKHalf = 450.0;

    /**
     * Constant DRAM bandwidth-utilization factor applied to
     * memory-bound GEMV/skinny-GEMM kernels (Sec. 4.1 of the paper,
     * the simplified single-factor variant).
     */
    double gemvDramUtilization = 0.75;

    /** Fixed software overhead per kernel launch, seconds. */
    double kernelLaunchOverhead = 3.0e-6;

    /** Peak matrix throughput; throws ConfigError if unsupported. */
    double matrixFlops(Precision p) const;
    /** Peak vector throughput; throws ConfigError if unsupported. */
    double vectorFlops(Precision p) const;
    /** True if the matrix engine supports precision @p p. */
    bool supportsMatrix(Precision p) const;

    /** The DRAM level (index 0). */
    const MemoryLevel &dram() const;
    /** Level lookup by name; throws ConfigError if absent. */
    const MemoryLevel &level(const std::string &name) const;

    /** Validate invariants; throws ConfigError on violation. */
    void validate() const;
};

} // namespace optimus

#endif // OPTIMUS_HW_DEVICE_H
