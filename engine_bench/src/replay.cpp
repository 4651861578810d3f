#include "replay.h"

#include <cmath>

namespace bench {

using namespace optimus;

namespace {

void
countPlan(const plan::KernelPlan &kp, Layers &layers)
{
    double ops = 0.0;
    for (const plan::PlanStep &st : kp.steps)
        for (const plan::ComputePart &part : st.parts)
            ops += double(part.ops.size());
    layers["plan.lower.steps"] += double(kp.steps.size());
    layers["plan.lower.ops"] += ops;
}

/**
 * The same steps through the raw models, without the evaluator's
 * memo, folding or bookkeeping: the base of plan.evaluate.over_raw.
 */
void
rawReplay(const plan::EvaluatedPlan &ep, const System &sys,
          Layers &layers)
{
    double roofline = timedExtra(layers, "roofline.raw_ms", [&] {
        double s = 0.0;
        for (const plan::PlanStep &st : ep.plan.steps)
            if (st.kind == plan::StepKind::Compute)
                for (const plan::ComputePart &part : st.parts)
                    for (const Op &op : part.ops)
                        s += evaluateOp(ep.dev, op).time;
        return s;
    });
    double comm = timedExtra(layers, "comm.raw_ms", [&] {
        double s = 0.0;
        for (const plan::PlanStep &st : ep.plan.steps)
            if (st.kind == plan::StepKind::Collective)
                s += systemCollective(sys, st.collective, st.volume,
                                      st.groupSize, st.scope,
                                      st.algorithm)
                         .time;
        return s;
    });
    require(std::isfinite(roofline) && std::isfinite(comm),
            "raw replay produced a non-finite time");
}

plan::EvaluatedPlan
evaluate(plan::KernelPlan kp, const System &sys, bool detail,
         Layers &layers)
{
    plan::EvaluateOptions eo;
    eo.detail = detail;
    return timed(layers, "plan.evaluate.ms", [&] {
        return plan::evaluatePlan(std::move(kp), sys, eo);
    });
}

void
foldKernels(const plan::EvaluatedPlan &ep, Layers &layers)
{
    size_t rows = timed(layers, "plan.fold.ms", [&] {
        return plan::kernelAggregates(ep).size();
    });
    require(rows > 0, "kernelAggregates returned no rows");
    layers["plan.fold.kernel_rows"] += double(rows);
}

} // namespace

Replayed
replayTraining(const TransformerConfig &cfg, const System &sys,
               const ParallelConfig &par, long long batch,
               const TrainingOptions &opts, Layers &layers, bool detail)
{
    plan::KernelPlan kp = timed(layers, "plan.lower.ms", [&] {
        return plan::lowerTraining(cfg, sys, par, batch, opts);
    });
    countPlan(kp, layers);
    Replayed r;
    r.plan = evaluate(std::move(kp), sys, detail, layers);
    plan::FoldedTraining f = timed(layers, "plan.fold.ms", [&] {
        return plan::foldTraining(r.plan, nullptr);
    });
    if (detail)
        foldKernels(r.plan, layers);
    double mem = timed(layers, "memory.ms", [&] {
        return trainingMemoryPerDevice(cfg, par, batch, opts.seqLength,
                                       opts.recompute, opts.memory)
            .total();
    });
    positive(mem, "replayed training memory");
    rawReplay(r.plan, sys, layers);
    r.predictions = {positive(f.time.total(), "replayed timePerBatch")};
    return r;
}

Replayed
replayInference(const TransformerConfig &cfg, const System &sys,
                const InferenceOptions &opts, Layers &layers,
                bool detail)
{
    plan::KernelPlan kp = timed(layers, "plan.lower.ms", [&] {
        return plan::lowerInference(cfg, sys, opts);
    });
    countPlan(kp, layers);
    Replayed r;
    r.plan = evaluate(std::move(kp), sys, detail, layers);
    plan::FoldedInference f = timed(layers, "plan.fold.ms", [&] {
        return plan::foldInference(r.plan, nullptr);
    });
    if (detail)
        foldKernels(r.plan, layers);
    rawReplay(r.plan, sys, layers);
    r.predictions = {f.prefill.time, f.decode.time,
                     positive(f.prefill.time + f.decode.time,
                              "replayed totalLatency")};
    return r;
}

} // namespace bench
