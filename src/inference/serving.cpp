#include "inference/serving.h"

#include "plan/plan.h"
#include "util/error.h"

namespace optimus {

ServingPoint
evaluateServingPoint(const TransformerConfig &cfg, const System &sys,
                     const ServingOptions &opts, long long batch)
{
    checkPositive(batch, "batch");
    checkPositive(opts.promptLength, "promptLength");
    checkPositive(opts.generateLength, "generateLength");

    ServingPoint pt;
    pt.batch = batch;

    InferenceOptions io;
    io.precision = opts.precision;
    io.kvPrecision = opts.kvPrecision;
    io.tensorParallel = opts.tensorParallel;
    io.flashAttention = opts.flashAttention;
    io.collectiveAlgorithm = opts.collectiveAlgorithm;
    io.generateLength = 1;

    // One decode step for every sequence at the mean context
    // (prompt + generate / 2): the plan's one-token decode.
    io.batch = batch;
    io.promptLength = opts.promptLength + opts.generateLength / 2 - 1;
    pt.decodeStepTime =
        plan::foldInference(
            plan::evaluatePlan(plan::lowerDecode(cfg, sys, io), sys),
            nullptr)
            .decode.time;

    // Continuous batching interleaves one prefill per completed
    // sequence; amortize its cost over that sequence's generated
    // tokens. Prefill runs at batch 1 (chunked alongside decode).
    io.batch = 1;
    io.promptLength = opts.promptLength;
    InferenceReport one = evaluateInference(cfg, sys, io);
    pt.timeToFirstToken = one.prefill.time;

    double amortized_prefill =
        one.prefill.time / double(opts.generateLength);
    double effective_step = pt.decodeStepTime + amortized_prefill;

    pt.interTokenLatency = effective_step;
    pt.tokensPerSecond = double(batch) / effective_step;
    pt.requestsPerSecond =
        pt.tokensPerSecond / double(opts.generateLength);

    // Memory at the longest context: every sequence fully generated.
    io.batch = batch;
    io.generateLength = opts.generateLength;
    const InferenceMemory mem = inferenceMemory(cfg, io);
    pt.kvCacheBytesPerDevice = mem.kvCache / double(opts.tensorParallel);
    pt.fits = mem.perDevice <= sys.device.dram().capacity;
    return pt;
}

ServingPoint
maxThroughputPoint(const TransformerConfig &cfg, const System &sys,
                   const ServingOptions &opts, long long batch_limit)
{
    checkPositive(batch_limit, "batch limit");
    ServingPoint best;
    bool any = false;
    for (long long b = 1; b <= batch_limit; b *= 2) {
        ServingPoint pt = evaluateServingPoint(cfg, sys, opts, b);
        if (!pt.fits)
            break;
        if (!any || pt.tokensPerSecond > best.tokensPerSecond) {
            best = pt;
            any = true;
        }
    }
    checkConfig(any, "model does not fit the device at batch 1");
    return best;
}

double
costPerMillionTokens(const System &sys, const ServingOptions &opts,
                     const ServingPoint &point,
                     const ServingCostModel &cost)
{
    (void)sys;  // reserved for per-system power/price lookups
    checkPositive(point.tokensPerSecond, "tokens per second");

    const double devices = double(opts.tensorParallel);
    const double seconds_per_mtok = 1e6 / point.tokensPerSecond;

    // Amortized hardware for the TP group.
    double fleet_price = cost.tco.devicePriceUsd * devices *
                         (1.0 + cost.tco.interconnectFraction);
    double amortization_seconds =
        cost.tco.amortizationYears * 365.25 * 24.0 * 3600.0;
    double capex = fleet_price * seconds_per_mtok /
                   amortization_seconds;

    // Electricity: decode is memory-bound, so devices run well below
    // TDP; charge the idle fraction plus DRAM-activity power.
    double watts = cost.energy.devicePower * devices *
                   (cost.energy.idlePowerFraction + 0.35);
    double kwh = watts * seconds_per_mtok / 3.6e6;
    double energy = kwh * cost.tco.powerCostPerKwh * cost.tco.pue;

    return capex + energy;
}

} // namespace optimus
