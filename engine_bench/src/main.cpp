/**
 * @file
 * Engine benchmark runner: one process, one workload, one evaluation
 * thread, closed loop (the next call starts when the previous one
 * returns).
 *
 *   engine_bench --workload NAME --seed N --seconds S --trace 0|1
 *                [--root DIR]
 *
 * Set-up (input generation from the seed, system construction and a
 * small cold-cache warm-up) is repeated kSetupReps times; setup_s is
 * its median. Then:
 *
 *  --trace 0  times whole laps over the population, each in a fresh
 *             seeded shuffled order, for up to S seconds, and prints
 *             the end-to-end metrics;
 *  --trace 1  runs exactly one lap of the same order; every call runs
 *             untraced, then again stage by stage through the layers'
 *             public functions with the benchmark's timers around
 *             each stage, and prints the per-layer metrics. One fixed
 *             lap keeps the counts exact for a given seed.
 *
 * Every call is gated (see workloads.h); the warm-up predictions are
 * digested cold and again warm after the run, and the Table 1 / Table 2
 * reference rows are checked against baselines/. The last stdout line
 * is one JSON object; the exit code is non-zero when any gate failed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "core/optimus.h"
#include "harness.h"
#include "host_speed.h"
#include "reference.h"
#include "workloads.h"

using namespace optimus;
using namespace bench;

namespace {

struct Workload
{
    const char *name;
    std::vector<Call> (*make)(uint64_t seed);
    bool coldTileCache;  ///< clear the tile cache before every call
    bool table1;         ///< model_err_pct covers Table 1 rows
    bool table2;         ///< ... and/or Table 2 rows
    size_t warmup;       ///< first inputs (generation order) warmed up
};

const std::vector<Workload> kWorkloads = {
    {"train_sweep", trainSweep, false, true, false, 3},
    {"decode_serve", decodeServe, false, false, true, 4},
    {"dse_tech", dseTech, true, true, true, 2},
    {"record_explain", recordExplain, false, true, true, 6},
};

constexpr int kSetupReps = 5;

struct MetricSpec
{
    const char *name;
    const char *unit;
};

const std::vector<MetricSpec> kEndToEnd = {
    {"calls_per_s", "1/s"},  {"call_p50_ms", "ms"},
    {"call_p95_ms", "ms"},   {"setup_s", "s"},
    {"peak_rss_mb", "MB"},   {"ok_pct", "%"},
    {"model_err_pct", "%"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"plan.lower.ms", "ms"},
    {"plan.lower.steps", "count"},
    {"plan.lower.ops", "count"},
    {"plan.evaluate.ms", "ms"},
    {"plan.evaluate.over_raw", "ratio"},
    {"roofline.raw_ms", "ms"},
    {"comm.raw_ms", "ms"},
    {"roofline.tile_hits", "count"},
    {"roofline.tile_misses", "count"},
    {"roofline.tile_hit_pct", "%"},
    {"plan.fold.ms", "ms"},
    {"plan.fold.kernel_rows", "count"},
    {"planner.mappings", "count"},
    {"planner.pruned_illegal", "count"},
    {"planner.pruned_memory", "count"},
    {"planner.plans_evaluated", "count"},
    {"planner.self_ms", "ms"},
    {"memory.ms", "ms"},
    {"serving.ms", "ms"},
    {"speculative.ms", "ms"},
    {"dse.evaluations", "count"},
    {"dse.objective_ms", "ms"},
    {"dse.self_ms", "ms"},
    {"trace.spans", "count"},
    {"trace.overhead_x", "ratio"},
    {"trace.export_ms", "ms"},
    {"report.record_ms", "ms"},
    {"report.diff_ms", "ms"},
    {"config.roundtrip_ms", "ms"},
    {"lint.ms", "ms"},
    {"lint.rejected", "count"},
    {"bench.trace_overhead_pct", "%"},
    {"failed_pct", "%"},
};

// ---- Executing and tallying calls -----------------------------------

enum class Outcome { Ok, KnownDefect, Violation };

struct Result
{
    Outcome outcome = Outcome::Ok;
    Predictions predictions;
    std::string error;
    double ms = 0.0;
};

template <class F>
Result
execute(const Call &call, F &&fn)
{
    Result r;
    Clock::time_point t0 = Clock::now();
    try {
        r.predictions = fn();
    } catch (const GateError &e) {
        r.outcome = Outcome::Violation;
        r.error = e.what();
    } catch (const ConfigError &e) {
        r.outcome = call.knownDefect ? Outcome::KnownDefect
                                     : Outcome::Violation;
        r.error = e.what();
    } catch (const std::exception &e) {
        r.outcome = Outcome::Violation;
        r.error = e.what();
    }
    r.ms = msSince(t0);
    return r;
}

void
digestResult(Digest &d, const Result &r)
{
    d.add(uint64_t(r.outcome));
    for (double v : r.predictions)
        d.add(v);
}

/** Counts and host times of executed calls. */
struct Tally
{
    struct Timing
    {
        std::string kind;
        double start = 0.0;  ///< ms on the run's timeline
        double ms = 0.0;     ///< raw host ms
    };

    long long attempted = 0;
    long long failed = 0;
    long long violations = 0;
    std::vector<Timing> timings;
    std::vector<std::string> errors;

    void violation(const std::string &what)
    {
        ++violations;
        if (errors.size() < 8)
            errors.push_back(what);
    }

    void add(const Call &call, const Result &r, double start_ms)
    {
        ++attempted;
        timings.push_back({call.kind, start_ms, r.ms});
        if (r.outcome == Outcome::Ok)
            return;
        ++failed;
        if (r.outcome == Outcome::Violation)
            violation(call.kind + " " + call.input.dump() + ": " +
                      r.error);
    }
};

/** Nearest-rank percentile of @p v (sorted in place), q in (0, 1]. */
double
percentile(std::vector<double> &v, double q)
{
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(std::ceil(q * double(v.size())));
    return v[std::max<size_t>(rank, 1) - 1];
}

double
median(std::vector<double> v)
{
    return percentile(v, 0.5);
}

// ---- Set-up ------------------------------------------------------------

struct Setup
{
    std::vector<Call> calls;
    uint64_t inputHash = 0;
    uint64_t warmDigest = 0;
};

uint64_t
hashInputs(const std::vector<Call> &calls)
{
    Digest d;
    for (const Call &c : calls) {
        d.add(c.kind);
        d.add(c.input.dump());
    }
    return d.value();
}

/** Digest of the warm-up inputs' predictions, gating each call. */
uint64_t
warmUp(const Workload &w, const std::vector<Call> &calls, Tally &gates)
{
    Digest d;
    for (size_t i = 0; i < std::min(w.warmup, calls.size()); ++i) {
        if (w.coldTileCache)
            tileCacheClear();
        Result r = execute(calls[i], calls[i].run);
        if (r.outcome == Outcome::Violation)
            gates.violation("warm-up " + calls[i].kind + ": " + r.error);
        digestResult(d, r);
    }
    return d.value();
}

/**
 * Set up kSetupReps times from a cold tile cache; every repetition
 * must generate the same inputs and predict the same warm-up digest.
 */
Setup
setUp(const Workload &w, uint64_t seed, Tally &gates,
      std::vector<double> &setup_s)
{
    Setup s;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const double kernel_before = HostSpeed::kernelMs();
        Clock::time_point t0 = Clock::now();
        tileCacheClear();
        std::vector<Call> calls = w.make(seed);
        const uint64_t hash = hashInputs(calls);
        const uint64_t digest = warmUp(w, calls, gates);
        const double ms = msSince(t0);
        const double kernel_after = HostSpeed::kernelMs();
        setup_s.push_back(ms / 1e3 * kReferenceMs /
                          (0.5 * (kernel_before + kernel_after)));
        if (rep == 0) {
            s.calls = std::move(calls);
            s.inputHash = hash;
            s.warmDigest = digest;
            continue;
        }
        if (hash != s.inputHash)
            gates.violation("input generation is not deterministic");
        if (digest != s.warmDigest)
            gates.violation("cold warm-up digest differs between set-ups");
    }
    return s;
}

std::vector<size_t>
lapOrder(size_t n)
{
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), size_t(0));
    return order;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

// ---- Output -------------------------------------------------------------

JsonValue
metricJson(double value, const char *unit)
{
    JsonValue m = JsonValue::object();
    m.set("value", JsonValue::number(std::isfinite(value) ? value : 0.0));
    m.set("unit", JsonValue::string(unit));
    return m;
}

/** Per-kind p50/p95 of drift-scaled call times. */
void
printKinds(const Tally &t, const HostSpeed &speed)
{
    std::map<std::string, std::vector<double>> kinds;
    for (const Tally::Timing &c : t.timings)
        kinds[c.kind].push_back(c.ms * speed.factor(c.start + c.ms / 2));
    for (auto &[kind, v] : kinds)
        std::printf("  %-20s n=%-5zu p50 %9.3f ms  p95 %9.3f ms\n",
                    kind.c_str(), v.size(), percentile(v, 0.5),
                    percentile(v, 0.95));
}

// ---- The two modes ------------------------------------------------------

/** --trace 0: closed loop for @p seconds; end-to-end timing metrics. */
std::map<std::string, double>
runTimed(const Workload &w, const Setup &s, uint64_t seed,
         double seconds, Tally &tally)
{
    Rng rng(seed ^ 0x6f7264657273ull);
    std::vector<size_t> order = lapOrder(s.calls.size());
    const Clock::time_point start = Clock::now();
    HostSpeed speed;
    // Whole laps only, so every call is weighted alike: a partial last
    // lap would shift the mix, and with it the median, from run to run.
    // A lap starts only if one more lap as long as the last still fits.
    long long laps = 0;
    double lap_ms = 0.0;
    while (laps == 0 || msSince(start) + lap_ms <= seconds * 1e3) {
        const double lap_start = msSince(start);
        rng.shuffle(order);
        ++laps;
        for (size_t i : order) {
            speed.maybeSample(msSince(start));
            if (w.coldTileCache)
                tileCacheClear();
            const double t = msSince(start);
            tally.add(s.calls[i], execute(s.calls[i], s.calls[i].run), t);
        }
        lap_ms = msSince(start) - lap_start;
    }
    const double window_s = msSince(start) / 1e3;
    speed.sample(window_s * 1e3);

    std::vector<double> raw;
    std::vector<double> scaled;
    for (const Tally::Timing &c : tally.timings) {
        raw.push_back(c.ms);
        scaled.push_back(c.ms * speed.factor(c.start + c.ms / 2));
    }
    const double ok = double(tally.attempted - tally.failed);
    const double p95 = percentile(scaled, 0.95);
    const long long beyond =
        std::count_if(scaled.begin(), scaled.end(),
                      [p95](double v) { return v > p95; });
    std::printf("window: %.3f s, %lld laps, %lld calls, %lld failed, "
                "%lld samples beyond p95, %zu tile-cache entries\n",
                window_s, laps, tally.attempted, tally.failed, beyond,
                tileCacheStats().entries);
    std::printf("raw host time: %.4f calls/s, p50 %.4f ms, p95 %.4f ms; "
                "host speed factor %.4f (%zu calibration samples)\n",
                ok / window_s, percentile(raw, 0.5), percentile(raw, 0.95),
                speed.overallFactor(), speed.samples());
    printKinds(tally, speed);

    std::map<std::string, double> m;
    m["calls_per_s"] =
        ok / (std::accumulate(scaled.begin(), scaled.end(), 0.0) / 1e3);
    m["call_p50_ms"] = percentile(scaled, 0.5);
    m["call_p95_ms"] = p95;
    m["ok_pct"] = 100.0 * ok / double(tally.attempted);
    m["peak_rss_mb"] = peakRssMb();
    return m;
}

/** --trace 1: one lap, untraced then replayed; per-layer metrics. */
std::map<std::string, double>
runTraced(const Workload &w, const Setup &s, uint64_t seed, Tally &tally)
{
    Rng rng(seed ^ 0x6f7264657273ull);
    std::vector<size_t> order = lapOrder(s.calls.size());
    rng.shuffle(order);

    HostSpeed speed;
    const Clock::time_point start = Clock::now();
    Layers layers;
    double untraced_ms = 0.0;
    double traced_ms = 0.0;
    unsigned long long hits = 0;
    unsigned long long misses = 0;
    Digest lap;
    for (size_t i : order) {
        const Call &call = s.calls[i];
        speed.maybeSample(msSince(start));
        if (w.coldTileCache)
            tileCacheClear();
        const double t0 = msSince(start);
        const TileCacheStats before = tileCacheStats();
        Result u = execute(call, call.run);
        const TileCacheStats after = tileCacheStats();
        hits += after.hits - before.hits;
        misses += after.misses - before.misses;
        tally.add(call, u, t0);
        untraced_ms += u.ms;
        digestResult(lap, u);

        if (w.coldTileCache)
            tileCacheClear();
        const double extra0 = layers.extraMs;
        Result t = execute(call, [&] { return call.replay(layers); });
        traced_ms += t.ms - (layers.extraMs - extra0);
        if (t.outcome != u.outcome) {
            tally.violation(call.kind + " " + call.input.dump() +
                            ": traced replay outcome differs: " +
                            t.error);
        } else if (t.outcome == Outcome::Ok) {
            bool same = t.predictions.size() == u.predictions.size();
            for (size_t k = 0; same && k < t.predictions.size(); ++k) {
                double a = u.predictions[k];
                double b = t.predictions[k];
                same = std::fabs(a - b) <=
                       1e-9 * std::max(std::fabs(a), std::fabs(b));
            }
            if (!same)
                tally.violation(call.kind + " " + call.input.dump() +
                                ": traced replay predictions differ");
        }
    }
    speed.sample(msSince(start));
    std::printf("traced lap: %zu calls, %lld failed, untraced %.3f s, "
                "traced %.3f s (raw), lap digest %s\n",
                order.size(), tally.failed, untraced_ms / 1e3,
                traced_ms / 1e3, hex(lap.value()).c_str());
    printKinds(tally, speed);

    // Stage times: drift-scaled host ms per workload call.
    const double per_call = speed.overallFactor() / double(order.size());
    std::map<std::string, double> m;
    for (const MetricSpec &spec : kPerLayer)
        m[spec.name] = layers[spec.name] *
                       (std::string(spec.unit) == "ms" ? per_call : 1.0);
    const double raw = layers["roofline.raw_ms"] + layers["comm.raw_ms"];
    m["plan.evaluate.over_raw"] =
        raw > 0.0 ? layers["plan.evaluate.ms"] / raw : 0.0;
    m["roofline.tile_hits"] = double(hits);
    m["roofline.tile_misses"] = double(misses);
    m["roofline.tile_hit_pct"] =
        hits + misses > 0 ? 100.0 * double(hits) / double(hits + misses)
                          : 0.0;
    m["trace.overhead_x"] =
        layers["trace.untraced_ms"] > 0.0
            ? layers["trace.traced_ms"] / layers["trace.untraced_ms"]
            : 0.0;
    m["bench.trace_overhead_pct"] =
        100.0 * (traced_ms / untraced_ms - 1.0);
    m["failed_pct"] =
        100.0 * double(tally.failed) / double(tally.attempted);
    return m;
}

int
run(int argc, char **argv)
{
    Flags flags = Flags::parse(argc, argv);
    const std::string name = flags.get("workload", "");
    auto w = std::find_if(kWorkloads.begin(), kWorkloads.end(),
                          [&](const Workload &x) { return name == x.name; });
    checkConfig(w != kWorkloads.end(), "unknown --workload '" + name +
                                           "' (train_sweep, decode_serve, "
                                           "dse_tech, record_explain)");
    const long long seed = flags.getInt("seed", 1);
    const double seconds = flags.getNumber("seconds", 10.0);
    const bool traced = flags.getInt("trace", 0) != 0;
    const std::string root = flags.get("root", ".");
    checkConfig(seconds > 0.0, "--seconds must be positive");

    Tally gates;  // set-up and verification gates
    std::vector<double> setup_s;
    Setup s = setUp(*w, uint64_t(seed), gates, setup_s);
    std::printf("engine_bench %s: seed %lld, %zu inputs, input hash %s, "
                "%s\n",
                w->name, seed, s.calls.size(), hex(s.inputHash).c_str(),
                traced ? "traced lap" : "untraced window");
    std::printf("setup: median %.4f s over %d set-ups\n", median(setup_s),
                kSetupReps);

    Tally tally;
    std::map<std::string, double> m =
        traced ? runTraced(*w, s, uint64_t(seed), tally)
               : runTimed(*w, s, uint64_t(seed), seconds, tally);

    // Verification, untimed: the warm-up inputs again with a warm
    // cache, then the reference rows.
    const uint64_t warm = warmUp(*w, s.calls, gates);
    std::printf("prediction digest: cold %s, warm %s\n",
                hex(s.warmDigest).c_str(), hex(warm).c_str());
    if (warm != s.warmDigest)
        gates.violation("warm-cache predictions differ from cold ones");

    std::vector<double> errs;
    try {
        if (w->table1)
            for (double e : table1Errors(root))
                errs.push_back(e);
        if (w->table2)
            for (double e : table2Errors(root))
                errs.push_back(e);
    } catch (const std::exception &e) {
        gates.violation(std::string("reference rows: ") + e.what());
    }
    const double err_pct =
        errs.empty() ? 0.0
                     : std::accumulate(errs.begin(), errs.end(), 0.0) /
                           double(errs.size());
    std::printf("reference: %zu rows, mean |dE| %.4f %%\n", errs.size(),
                err_pct);

    const long long violations = tally.violations + gates.violations;
    for (const std::string &e : gates.errors)
        std::fprintf(stderr, "GATE: %s\n", e.c_str());
    for (const std::string &e : tally.errors)
        std::fprintf(stderr, "GATE: %s\n", e.c_str());

    m["setup_s"] = median(setup_s);
    m["model_err_pct"] = err_pct;
    JsonValue metrics = JsonValue::object();
    for (const MetricSpec &spec : traced ? kPerLayer : kEndToEnd)
        metrics.set(spec.name, metricJson(m[spec.name], spec.unit));
    JsonValue out = JsonValue::object();
    out.set("correct", JsonValue::boolean(violations == 0));
    out.set("attempted", JsonValue::number(double(tally.attempted)));
    out.set("failed", JsonValue::number(double(tally.failed)));
    out.set("metrics", metrics);
    std::cout << out.dump() << std::endl;
    return violations == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "engine_bench: %s\n", e.what());
        return 2;
    }
}
