/**
 * @file
 * The single evaluator: maps every PlanStep through the roofline
 * (workload/graph.h) and collective (comm/collective.h) models.
 *
 * There is no op-list memo here: the process-wide GEMM tile cache
 * (roofline/gemm.cpp) is the engine's only memo. Every estimate is
 * recomputed from the op, so results are independent of evaluation
 * order and thread count.
 *
 * A decode range step is evaluated once and scaled by its token count,
 * unless its op binds the attended span: then the op is rebound to
 * each token's span and evaluateOp runs per token — the same estimates
 * a per-(token, op) plan would produce, summed without the per-token
 * step bookkeeping.
 */

#include "plan/plan.h"

#include <algorithm>
#include <array>

namespace optimus {
namespace plan {

namespace {

/** Attended span of token @p t of a range step. */
long long
tokenSpan(const PlanStep &st, long long t)
{
    return std::min(st.contextStart + t, st.spanCap);
}

/** Add @p scale instances of @p est to the step's work sums. */
void
addWork(StepEval &ev, const KernelEstimate &est, double scale)
{
    ev.flops += est.flops * scale;
    if (!est.bytesPerLevel.empty())
        ev.dramBytes += est.bytesPerLevel[0] * scale;
    ev.overhead += est.overhead * scale;
    if (!est.memTimePerLevel.empty())
        ev.memoryTime += est.memTimePerLevel[0] * scale;
}

/**
 * A compute step evaluated once (range steps: same for every token).
 * A part that carries its layer part's estimate is not evaluated again.
 */
void
evaluateCompute(const Device &dev, const PlanStep &st, bool detail,
                StepEval &ev)
{
    const double instances = double(st.instances());
    double combined = 0.0;
    size_t winner = 0;
    ev.partEsts.reserve(st.parts.size());
    for (size_t pi = 0; pi < st.parts.size(); ++pi) {
        const ComputePart &part = st.parts[pi];
        KernelEstimate est =
            part.estimate ? *part.estimate : evaluatePart(dev, part);
        double scaled = est.time * part.scale;
        if (pi == 0) {
            combined = scaled;
        } else if (st.combine == PartCombine::Max) {
            // Only the worst stage runs on the critical path.
            if (scaled > combined) {
                combined = scaled;
                winner = pi;
            }
        } else {
            combined += scaled;
        }
        ev.partEsts.push_back(std::move(est));
    }
    ev.perInstance = combined;
    ev.total = ev.perInstance * instances;
    for (size_t pi = 0; pi < st.parts.size(); ++pi)
        if (st.combine == PartCombine::Sum || pi == winner)
            addWork(ev, ev.partEsts[pi], st.parts[pi].scale * instances);
    ev.boundLevel = ev.partEsts[0].boundLevel;
    if (st.kernelStep) {
        // Kernel steps are single-op by construction.
        BoundBucket b =
            boundBucket(st.parts[0].ops[0], ev.boundLevel);
        ev.category = bucketCategory(st.phase, b);
        ev.bucketTime[size_t(b)] = ev.total;
    }
    if (detail && !st.detailLane.empty())
        for (const Op &op : st.parts[0].ops)
            ev.opEsts.push_back(evaluateOp(dev, op));
}

/**
 * A range step whose op binds the attended span: rebind the span and
 * evaluate token by token, summing per-instance quantities and scaling
 * by the microbatch x layer repeats once at the end.
 */
void
evaluateSpanRange(const Device &dev, const PlanStep &st, bool detail,
                  StepEval &ev)
{
    const double repeats =
        double(st.repeatMicrobatch) * double(st.repeatLayer);
    Op op = st.parts[0].ops[0];
    // Time bound by each resource: compute, then each memory level.
    std::array<double, kMaxMemoryLevels + 1> levelTime{};
    double time = 0.0;
    if (detail)
        ev.tokenEsts.reserve(size_t(st.tokens));
    for (long long t = 0; t < st.tokens; ++t) {
        bindSpan(op, tokenSpan(st, t));
        KernelEstimate est = evaluateOp(dev, op);
        time += est.time;
        ev.bucketTime[size_t(boundBucket(op, est.boundLevel))] +=
            est.time;
        levelTime[size_t(est.boundLevel + 1)] += est.time;
        addWork(ev, est, 1.0);
        if (t == 0) {
            ev.partEsts.push_back(est);
            ev.partEsts[0].kernel = op.name;
        }
        if (detail)
            ev.tokenEsts.push_back(std::move(est));
    }
    ev.total = time * repeats;
    ev.perInstance = ev.total / double(st.instances());
    for (double &b : ev.bucketTime)
        b *= repeats;
    ev.flops *= repeats;
    ev.dramBytes *= repeats;
    ev.overhead *= repeats;
    ev.memoryTime *= repeats;
    // The lowest level wins a tie, so the label is deterministic.
    ev.boundLevel =
        int(std::max_element(levelTime.begin(),
                             levelTime.begin() + dev.mem.size() + 1) -
            levelTime.begin()) -
        1;
    ev.category =
        bucketCategory(st.phase, boundBucket(op, ev.boundLevel));
}

} // namespace

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

bool
bindsSpan(const PlanStep &st)
{
    return st.tokens > 0 && st.kind == StepKind::Compute &&
           st.parts.size() == 1 && st.parts[0].ops.size() == 1 &&
           st.parts[0].ops[0].spanDim != SpanDim::None;
}

Op
tokenOp(const PlanStep &st, long long t)
{
    Op op = st.parts[0].ops[0];
    bindSpan(op, tokenSpan(st, t));
    return op;
}

BoundBucket
boundBucket(const Op &op, int bound_level)
{
    if (op.kind != OpKind::Gemm && op.kind != OpKind::FusedAttention)
        return BoundBucket::Other;
    return bound_level < 0 ? BoundBucket::GemmCompute
                           : BoundBucket::GemmMemory;
}

std::string
bucketCategory(const std::string &phase, BoundBucket b)
{
    static const char *const kNames[] = {"gemm-compute", "gemm-memory",
                                         "other"};
    return phase + "-" + kNames[size_t(b)];
}

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

        switch (st.kind) {
          case StepKind::Compute:
            if (bindsSpan(st))
                evaluateSpanRange(ep.dev, st, opts.detail, ev);
            else
                evaluateCompute(ep.dev, st, opts.detail, ev);
            break;
          case StepKind::Collective:
            ev.coll = systemCollective(sys, st.collective, st.volume,
                                       st.groupSize, st.scope,
                                       st.algorithm);
            ev.perInstance =
                (ev.coll.time * st.callsPerInstance) *
                st.exposedFraction;
            ev.total = ev.perInstance * double(st.instances());
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
