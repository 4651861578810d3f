#include "inference/speculative.h"

#include <cmath>

#include "comm/collective.h"
#include "util/error.h"
#include "workload/graph.h"

namespace optimus {

namespace {

/** One decode step over @p queries query tokens at @p context. */
double
stepTime(const TransformerConfig &cfg, const System &sys,
         const SpeculativeOptions &opts, long long queries,
         long long tp)
{
    double t = 0.0;
    for (const Op &op : decodeLayerOps(cfg, queries, opts.context, tp,
                                       opts.precision))
        t += evaluateOp(sys.device, op).time;
    t *= double(cfg.numLayers);

    if (tp > 1) {
        double volume = double(queries) * cfg.hiddenSize *
                        precisionBytes(opts.precision);
        CollectiveResult ar = systemCollective(
            sys, CollectiveKind::AllReduce, volume, tp,
            groupScopeFor(sys, tp));
        t += 2.0 * ar.time * double(cfg.numLayers);
    }
    for (const Op &op : headOps(cfg, queries, tp, opts.precision))
        t += evaluateOp(sys.device, op).time;
    return t;
}

} // namespace

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

    SpeculativeReport rep;

    // The draft runs unsharded (it is small); the target keeps TP.
    rep.draftStepTime = stepTime(draft, sys, opts, 1, 1);
    rep.verifyTime = stepTime(target, sys, opts, opts.gamma + 1,
                              opts.tensorParallel);

    rep.cycleTime =
        double(opts.gamma) * rep.draftStepTime + rep.verifyTime;

    const double a = opts.acceptanceRate;
    rep.expectedTokensPerCycle =
        (1.0 - std::pow(a, double(opts.gamma) + 1.0)) / (1.0 - a);

    rep.tokensPerSecond = rep.expectedTokensPerCycle / rep.cycleTime;

    double target_step =
        stepTime(target, sys, opts, 1, opts.tensorParallel);
    rep.baselineTokensPerSecond = 1.0 / target_step;
    rep.speedup = rep.tokensPerSecond / rep.baselineTokensPerSecond;
    return rep;
}

} // namespace optimus
