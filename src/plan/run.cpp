/**
 * @file
 * Thin drivers over the plan pipeline: lower -> evaluate -> fold,
 * plus the non-plan tails (memory footprint, model FLOPs / MFU,
 * KV-cache / weight accounting) that evaluateTraining and
 * evaluateInference return.
 */

#include "plan/plan.h"

#include "memory/footprint.h"
#include "trace/trace.h"

namespace optimus {
namespace plan {

namespace {

/** evaluate -> fold of a lowered training plan, plus the report tail. */
TrainingRun
finishTraining(KernelPlan kp, const System &sys,
               const TrainingOptions &opts, const TrainingMemory &memory,
               double model_flops, bool detail)
{
    EvaluateOptions eo;
    eo.detail = detail || tracing(opts.trace);

    TrainingRun run;
    run.plan = evaluatePlan(std::move(kp), sys, eo);
    FoldedTraining f = foldTraining(run.plan, opts.trace);

    TrainingReport &rep = run.report;
    rep.time = f.time;
    rep.layerForward = f.layerForward;
    rep.layerBackward = f.layerBackward;
    rep.microbatches = run.plan.plan.microbatches;
    rep.bubbleFraction = run.plan.plan.bubbleFraction;
    rep.timePerBatch = rep.time.total();

    rep.memory = memory;
    rep.modelFlops = model_flops;
    double system_peak = run.plan.dev.matrixFlops(opts.precision) *
                         double(sys.totalDevices());
    rep.mfu = rep.modelFlops / (rep.timePerBatch * system_peak);
    if (tracing(opts.trace)) {
        opts.trace->counterSet("train/time-per-batch-s",
                               rep.timePerBatch);
        opts.trace->counterSet("train/mfu", rep.mfu);
    }
    return run;
}

} // namespace

double
modelFlopsPerBatch(const TransformerConfig &cfg, long long global_batch,
                   long long seq, Precision precision)
{
    LayerGraphParams gp;
    gp.batch = global_batch;
    gp.seq = seq;
    gp.tensorParallel = 1;
    gp.training = true;
    gp.precision = precision;

    double layer_fwd = 0.0;
    for (const Op &op : layerForwardOps(cfg, gp))
        layer_fwd += opFlops(op);

    double head_fwd = 0.0;
    for (const Op &op : headOps(cfg, global_batch * seq, 1, precision))
        head_fwd += opFlops(op);

    // Backward is twice the forward work.
    return 3.0 * (layer_fwd * double(cfg.numLayers) + head_fwd);
}

TrainingRun
runTraining(const TransformerConfig &cfg, const System &sys,
            const ParallelConfig &par, long long global_batch,
            const TrainingOptions &opts, bool detail)
{
    KernelPlan kp = lowerTraining(cfg, sys, par, global_batch, opts);
    TrainingMemory memory =
        trainingMemoryPerDevice(cfg, par, global_batch, opts.seqLength,
                                opts.recompute, opts.memory);
    return finishTraining(std::move(kp), sys, opts, memory,
                          modelFlopsPerBatch(cfg, global_batch,
                                             opts.seqLength,
                                             opts.precision),
                          detail);
}

TrainingRun
runTraining(const LayerPart &layers, const TransformerConfig &cfg,
            const System &sys, const ParallelConfig &par,
            long long global_batch, const TrainingOptions &opts,
            const TrainingMemory &memory, double model_flops,
            bool detail)
{
    return finishTraining(
        lowerTraining(layers, cfg, sys, par, global_batch, opts), sys,
        opts, memory, model_flops, detail);
}

InferenceRun
runInference(const TransformerConfig &cfg, const System &sys,
             const InferenceOptions &opts, bool detail)
{
    KernelPlan kp = lowerInference(cfg, sys, opts);

    EvaluateOptions eo;
    eo.detail = detail || tracing(opts.trace);

    InferenceRun run;
    run.plan = evaluatePlan(std::move(kp), sys, eo);
    FoldedInference f = foldInference(run.plan, opts.trace);

    InferenceReport &rep = run.report;
    rep.prefill = f.prefill;
    rep.decode = f.decode;
    rep.totalLatency = rep.prefill.time + rep.decode.time;

    const InferenceMemory mem = inferenceMemory(cfg, opts);
    rep.kvCacheBytes = mem.kvCache;
    rep.weightBytes = mem.weights;
    rep.fitsDeviceMemory = mem.perDevice <= run.plan.dev.dram().capacity;
    return run;
}

} // namespace plan
} // namespace optimus
