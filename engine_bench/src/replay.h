/**
 * @file
 * Stage-by-stage replays of one training or inference evaluation
 * through the plan pipeline's public functions (lower -> evaluate ->
 * fold), with the benchmark's own timers around each stage, plus a
 * raw replay of the same steps through evaluateOp / systemCollective.
 */

#ifndef ENGINE_BENCH_REPLAY_H
#define ENGINE_BENCH_REPLAY_H

#include "core/optimus.h"
#include "harness.h"

namespace bench {

/** Folded results of a replay plus the evaluated plan behind it. */
struct Replayed
{
    /** {timePerBatch} (training) or {prefill, decode, total}. */
    Predictions predictions;
    optimus::plan::EvaluatedPlan plan;

    /** timePerBatch or totalLatency, seconds. */
    double total() const { return predictions.back(); }
};

/**
 * Replay evaluateTraining. Adds plan.lower.{ms,steps,ops},
 * plan.evaluate.ms, plan.fold.ms, memory.ms and the raw replays; with
 * @p detail also the kernel-detail evaluation and kernelAggregates
 * (plan.fold.kernel_rows), as the record and kernels paths need.
 */
Replayed replayTraining(const optimus::TransformerConfig &cfg,
                        const optimus::System &sys,
                        const optimus::ParallelConfig &par,
                        long long batch,
                        const optimus::TrainingOptions &opts,
                        Layers &layers, bool detail = false);

/** Replay evaluateInference; same stages and metrics. */
Replayed replayInference(const optimus::TransformerConfig &cfg,
                         const optimus::System &sys,
                         const optimus::InferenceOptions &opts,
                         Layers &layers, bool detail = false);

} // namespace bench

#endif // ENGINE_BENCH_REPLAY_H
