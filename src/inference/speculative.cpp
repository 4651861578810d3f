#include "inference/speculative.h"

#include <cmath>

#include "plan/plan.h"
#include "util/error.h"

namespace optimus {

SpeculativeReport
evaluateSpeculative(const TransformerConfig &target,
                    const TransformerConfig &draft, const System &sys,
                    const SpeculativeOptions &opts)
{
    target.validate();
    draft.validate();
    sys.validate();
    checkPositive(opts.gamma, "gamma");
    checkPositive(opts.context, "context");
    checkConfig(opts.acceptanceRate > 0.0 && opts.acceptanceRate < 1.0,
                "acceptanceRate must be in (0,1)");
    checkConfig(draft.parameterCount() < target.parameterCount(),
                "draft model must be smaller than the target");

    // Every step is the plan's one-token decode at the current
    // context. The cache is read at the compute precision.
    InferenceOptions io;
    io.precision = opts.precision;
    io.kvPrecision = opts.precision;
    io.promptLength = opts.context - 1;
    io.generateLength = 1;
    auto step = [&](const TransformerConfig &cfg, long long queries,
                    long long tp) {
        io.batch = queries;
        io.tensorParallel = tp;
        return plan::foldInference(
                   plan::evaluatePlan(plan::lowerDecode(cfg, sys, io),
                                      sys),
                   nullptr)
            .decode.time;
    };

    SpeculativeReport rep;

    // The draft runs unsharded (it is small); the target keeps TP.
    rep.draftStepTime = step(draft, 1, 1);
    rep.verifyTime = step(target, opts.gamma + 1, opts.tensorParallel);

    rep.cycleTime =
        double(opts.gamma) * rep.draftStepTime + rep.verifyTime;

    const double a = opts.acceptanceRate;
    rep.expectedTokensPerCycle =
        (1.0 - std::pow(a, double(opts.gamma) + 1.0)) / (1.0 - a);

    rep.tokensPerSecond = rep.expectedTokensPerCycle / rep.cycleTime;

    rep.baselineTokensPerSecond =
        1.0 / step(target, 1, opts.tensorParallel);
    rep.speedup = rep.tokensPerSecond / rep.baselineTokensPerSecond;
    return rep;
}

} // namespace optimus
