/**
 * @file
 * Shared plumbing of the engine benchmark: a platform-independent
 * seeded PRNG, host-time helpers, an exact prediction digest, the
 * correctness gate, and the Call record every workload generates.
 */

#ifndef ENGINE_BENCH_HARNESS_H
#define ENGINE_BENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/json.h"

namespace bench {

/**
 * splitmix64. The standard distributions are implementation-defined,
 * so every draw goes through these helpers to keep inputs identical
 * for one seed on every platform.
 */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : state_(seed) {}

    uint64_t next();
    /** Uniform integer in [lo, hi]. */
    long long range(long long lo, long long hi);
    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);
    /** Integer in [lo, hi], uniform in log space. */
    long long logRange(long long lo, long long hi);

    template <class T>
    T pick(const std::vector<T> &v)
    {
        return v[static_cast<size_t>(
            range(0, static_cast<long long>(v.size()) - 1))];
    }

    template <class T>
    void shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[static_cast<size_t>(range(
                                    0, static_cast<long long>(i) - 1))]);
    }

  private:
    uint64_t state_;
};

using Clock = std::chrono::steady_clock;

/** Host milliseconds elapsed since @p t0. */
double msSince(Clock::time_point t0);

/** FNV-1a over exact bit patterns: equal digests mean equal outputs. */
class Digest
{
  public:
    void add(double v);
    void add(uint64_t v);
    void add(const std::string &s);
    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 1469598103934665603ull;
};

/** 16-digit hex rendering of a digest or hash. */
std::string hex(uint64_t v);

/** A correctness-gate violation raised inside a call. */
class GateError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Throw GateError(@p what) unless @p ok. */
void require(bool ok, const std::string &what);
/** Return @p v; throw GateError unless it is finite and > 0. */
double positive(double v, const std::string &what);
/** Throw GateError unless a and b agree to @p rel relative. */
void near(double a, double b, double rel, const std::string &what);

/** Per-layer accumulators filled by the traced replays. */
struct Layers
{
    /** Metric name -> summed value (ms for times, counts otherwise). */
    std::map<std::string, double> values;
    /**
     * Host time spent on measurement-only work inside a replay (raw
     * roofline/collective replays, planner stage replays, untraced
     * reference evaluations); excluded from the traced call total.
     */
    double extraMs = 0.0;

    double &operator[](const std::string &key) { return values[key]; }
};

/** Run @p f, add its host time to layers[key] (ms), return its result. */
template <class F>
auto
timed(Layers &layers, const std::string &key, F &&f)
{
    Clock::time_point t0 = Clock::now();
    auto r = f();
    layers[key] += msSince(t0);
    return r;
}

/** Like timed(), but the time also counts as measurement-only work. */
template <class F>
auto
timedExtra(Layers &layers, const std::string &key, F &&f)
{
    const double before = layers[key];
    auto r = timed(layers, key, f);
    layers.extraMs += layers[key] - before;
    return r;
}

/** Key predictions of one call, compared between run and replay. */
using Predictions = std::vector<double>;

/**
 * One benchmark call: a generated input plus the two ways to run it.
 * The traced replay goes stage by stage through the layers' public
 * functions and must reproduce the untraced predictions to 1e-9.
 */
struct Call
{
    std::string kind;           ///< call kind, e.g. "planTraining"
    optimus::JsonValue input;   ///< canonical input (hashed)
    /**
     * A legal input that hits a defect the engine has today; a
     * ConfigError from it counts as a failed call, not as a broken
     * correctness gate.
     */
    bool knownDefect = false;
    std::function<Predictions()> run;
    std::function<Predictions(Layers &)> replay;
};

} // namespace bench

#endif // ENGINE_BENCH_HARNESS_H
