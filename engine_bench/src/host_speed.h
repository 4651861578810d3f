/**
 * @file
 * Host-speed calibration behind the drift-resistant host times.
 *
 * On the shared VMs this benchmark runs on, host speed drifts between a
 * fast and a slow state (up to ~1.7x) over seconds to minutes, with
 * thread CPU time equal to wall time: the slowdown is in the shared
 * memory system, not preemption, and allocator- and string-heavy code
 * like the engine's is hit hardest. A fixed calibration kernel of the
 * same character (string formatting, small allocations from its own
 * arena, ordered-map inserts and a walk) is timed every kSampleEveryMs
 * between calls. A
 * host time is reported as raw * kReferenceMs / (calibration time near
 * it): "ms on a host where the kernel takes kReferenceMs". The kernel
 * is the benchmark's own code, so an engine change never moves it and
 * parent/change ratios of the scaled times equal the raw ratios at
 * equal host speed. The run also prints the raw times.
 */

#ifndef ENGINE_BENCH_HOST_SPEED_H
#define ENGINE_BENCH_HOST_SPEED_H

#include <cstddef>
#include <utility>
#include <vector>

namespace bench {

/** Calibration-kernel time on the reference host state, ms. */
constexpr double kReferenceMs = 2.5;

/** Calibration samples taken along one timeline. */
class HostSpeed
{
  public:
    /** Minimum spacing of samples taken by maybeSample(). */
    static constexpr double kSampleEveryMs = 200.0;

    /** Time one run of the calibration kernel, ms. */
    static double kernelMs();

    /** Sample at @p t_ms (timeline ms) if kSampleEveryMs have passed. */
    void maybeSample(double t_ms);
    /** Sample at @p t_ms unconditionally. */
    void sample(double t_ms);

    /**
     * kReferenceMs over the median kernel time of the samples within
     * one second of @p t_ms (the nearest sample when none is).
     */
    double factor(double t_ms) const;
    /** kReferenceMs over the median kernel time of every sample. */
    double overallFactor() const;
    size_t samples() const { return samples_.size(); }

  private:
    std::vector<std::pair<double, double>> samples_;  ///< (t, kernel ms)
    double last_ = -1e300;
};

} // namespace bench

#endif // ENGINE_BENCH_HOST_SPEED_H
