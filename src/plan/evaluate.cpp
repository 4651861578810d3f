/**
 * @file
 * The single evaluator: maps every PlanStep through the roofline
 * (workload/graph.h) and collective (comm/collective.h) models.
 *
 * There is no op-list memo here: the process-wide GEMM tile cache
 * (roofline/gemm.cpp) is the engine's only memo. Every estimate is
 * recomputed from the op, so results are independent of evaluation
 * order and thread count.
 */

#include "plan/plan.h"

#include <algorithm>

namespace optimus {
namespace plan {

namespace {

/**
 * Evaluate one compute part. A single op goes through evaluateOp
 * directly so the estimate is bit-identical to the per-kernel detail
 * path.
 */
KernelEstimate
evaluatePart(const Device &dev, const ComputePart &part)
{
    KernelEstimate est = (part.ops.size() == 1)
                             ? evaluateOp(dev, part.ops[0])
                             : evaluateOps(dev, part.ops, part.label);
    est.kernel =
        part.ops.size() == 1 ? part.ops[0].name : part.label;
    return est;
}

} // namespace

EvaluatedPlan
evaluatePlan(KernelPlan plan, const System &sys,
             const EvaluateOptions &opts)
{
    EvaluatedPlan ep;
    ep.dev = sys.device;
    ep.evals.reserve(plan.steps.size());

    // Running busy time of the steps evaluated so far — the quantity
    // the pipeline-bubble step scales (the bubble is lowered after
    // every per-iteration step and before DP/optimizer).
    double busy = 0.0;

    for (const PlanStep &st : plan.steps) {
        StepEval ev;
        ev.category = st.category;
        const double instances =
            double(st.repeatLayer) * double(st.repeatMicrobatch);

        switch (st.kind) {
          case StepKind::Compute: {
            double combined = 0.0;
            for (size_t pi = 0; pi < st.parts.size(); ++pi) {
                KernelEstimate est =
                    evaluatePart(ep.dev, st.parts[pi]);
                double scaled = est.time * st.parts[pi].scale;
                if (pi == 0)
                    combined = scaled;
                else if (st.combine == PartCombine::Max)
                    combined = std::max(combined, scaled);
                else
                    combined += scaled;
                ev.partEsts.push_back(std::move(est));
            }
            ev.perInstance = combined;
            ev.total = ev.perInstance * instances;
            if (st.bucketByBound) {
                // Bound-bucketed steps are single-op by construction.
                const Op &op = st.parts[0].ops[0];
                const char *bucket = "other";
                if (op.kind == OpKind::Gemm ||
                    op.kind == OpKind::FusedAttention)
                    bucket = ev.partEsts[0].computeBound()
                                 ? "gemm-compute"
                                 : "gemm-memory";
                ev.category = st.phase + "-" + bucket;
            }
            if (opts.detail && !st.detailLane.empty())
                for (const Op &op : st.parts[0].ops)
                    ev.opEsts.push_back(evaluateOp(ep.dev, op));
            break;
          }
          case StepKind::Collective:
            ev.coll = systemCollective(sys, st.collective, st.volume,
                                       st.groupSize, st.scope,
                                       st.algorithm);
            ev.perInstance =
                (ev.coll.time * st.callsPerInstance) *
                st.exposedFraction;
            ev.total = ev.perInstance * instances;
            break;
          case StepKind::Synthetic:
            if (st.synthetic == SyntheticKind::Bubble)
                ev.total = busy * st.syntheticValue;
            else
                ev.total = st.syntheticValue /
                           (ep.dev.dram().bandwidth *
                            ep.dev.dram().utilization);
            ev.perInstance = ev.total;
            break;
        }

        busy += ev.total;
        ep.evals.push_back(std::move(ev));
    }

    ep.plan = std::move(plan);
    return ep;
}

} // namespace plan
} // namespace optimus
