/**
 * @file
 * Unit tests for the memory-footprint module: training breakdowns,
 * KV-cache sizing (paper Sec. 3.5), fit checks.
 */

#include <gtest/gtest.h>

#include "hw/presets.h"
#include "inference/serving.h"
#include "lint/lint.h"
#include "memory/footprint.h"
#include "memory/kv_cache.h"
#include "util/error.h"
#include "util/units.h"
#include "workload/presets.h"

namespace optimus {
namespace {

TEST(KvCache, MatchesPaperFormula)
{
    // 2 * batch * context * precision * layers * embedding dim.
    TransformerConfig cfg = models::gpt22b();  // MHA: kv width = h
    double expected = 2.0 * 4.0 * 1024.0 * 2.0 * 48.0 * 6144.0;
    EXPECT_DOUBLE_EQ(kvCacheBytes(cfg, 4, 1024, Precision::FP16),
                     expected);
}

TEST(KvCache, GqaShrinksTheCache)
{
    TransformerConfig gqa = models::llama2_70b();
    TransformerConfig mha = gqa;
    mha.numKvHeads = mha.numHeads;
    EXPECT_DOUBLE_EQ(kvCacheBytes(gqa, 1, 1000, Precision::FP16) * 8.0,
                     kvCacheBytes(mha, 1, 1000, Precision::FP16));
}

TEST(KvCache, ScalesWithPrecision)
{
    TransformerConfig cfg = models::llama2_13b();
    EXPECT_DOUBLE_EQ(kvCacheBytes(cfg, 1, 400, Precision::FP16),
                     2.0 * kvCacheBytes(cfg, 1, 400, Precision::FP8));
}

TEST(KvCache, Llama13BInsetNumbers)
{
    // Fig. 8 inset: Llama2-13B, context 400: ~0.3 GiB at B=1,
    // ~5 GiB at B=16; weights ~24 GiB at fp16.
    TransformerConfig cfg = models::llama2_13b();
    EXPECT_NEAR(kvCacheBytes(cfg, 1, 400, Precision::FP16) / GiB, 0.31,
                0.02);
    EXPECT_NEAR(kvCacheBytes(cfg, 16, 400, Precision::FP16) / GiB, 4.9,
                0.2);
    EXPECT_NEAR(modelWeightBytes(cfg, Precision::FP16) / GiB, 24.0,
                1.0);
}

TEST(KvCache, InferenceFits)
{
    const TransformerConfig cfg = models::llama2_70b();
    const double a100 = 80 * GiB;
    InferenceOptions opts;
    opts.promptLength = 200;
    opts.generateLength = 200;
    // 70B fp16 = ~129 GiB of weights: does not fit one 80 GiB A100.
    InferenceMemory one = inferenceMemory(cfg, opts);
    EXPECT_DOUBLE_EQ(one.weights, modelWeightBytes(cfg, Precision::FP16));
    EXPECT_DOUBLE_EQ(one.kvCache,
                     kvCacheBytes(cfg, 1, 400, Precision::FP16));
    EXPECT_GT(one.perDevice, a100);

    // Fits across two devices, whether they split by TP or by PP.
    opts.tensorParallel = 2;
    EXPECT_DOUBLE_EQ(inferenceMemory(cfg, opts).perDevice,
                     one.perDevice / 2);
    EXPECT_LE(inferenceMemory(cfg, opts).perDevice, a100);
    opts.tensorParallel = 1;
    opts.pipelineParallel = 2;
    EXPECT_DOUBLE_EQ(inferenceMemory(cfg, opts).perDevice,
                     one.perDevice / 2);

    // The KV cache is priced at kvPrecision, not at the weights'.
    opts.kvPrecision = Precision::FP8;
    EXPECT_DOUBLE_EQ(inferenceMemory(cfg, opts).kvCache,
                     one.kvCache / 2);
    EXPECT_DOUBLE_EQ(inferenceMemory(cfg, opts).weights, one.weights);
}

TEST(KvCache, EngineLintAndServingShareTheFitRule)
{
    // Llama2-70B at batch 64 and 2048 tokens on A100s: at TP 2 the KV
    // cache pushes it over 80 GiB per device, at TP 4 it fits. The
    // engine, the lint rule and the serving point agree with
    // inferenceMemory.
    const TransformerConfig cfg = models::llama2_70b();
    const System sys = presets::dgxA100(1);
    const double capacity = sys.device.dram().capacity;
    for (long long tp : {2, 4}) {
        SCOPED_TRACE(tp);
        InferenceOptions opts;
        opts.tensorParallel = tp;
        opts.batch = 64;
        opts.promptLength = 1024;
        opts.generateLength = 1024;
        const bool fits = inferenceMemory(cfg, opts).perDevice <= capacity;
        EXPECT_EQ(fits, tp == 4);
        EXPECT_EQ(evaluateInference(cfg, sys, opts).fitsDeviceMemory, fits);
        EXPECT_EQ(lint::lintInference(cfg, sys, opts).hasErrors(), !fits);

        ServingOptions sopts;
        sopts.tensorParallel = tp;
        sopts.promptLength = opts.promptLength;
        sopts.generateLength = opts.generateLength;
        EXPECT_EQ(evaluateServingPoint(cfg, sys, sopts, 64).fits, fits);
    }
}

TEST(Footprint, ParameterShardingByTpAndPp)
{
    TransformerConfig cfg = models::gpt175b();
    ParallelConfig base;
    base.tensorParallel = 8;
    base.pipelineParallel = 8;
    double p8 = parametersPerDevice(cfg, base);

    ParallelConfig wider = base;
    wider.pipelineParallel = 16;
    double p16 = parametersPerDevice(cfg, wider);
    // Doubling PP roughly halves the per-device layer parameters
    // (embedding is unaffected).
    EXPECT_LT(p16, p8);
    EXPECT_GT(p16, p8 / 2.0 * 0.95);
}

TEST(Footprint, MixedPrecisionAdamBytes)
{
    // weights 2B + grads 2B + optimizer 12B = 16 bytes per parameter.
    TransformerConfig cfg = models::gpt175b();
    ParallelConfig par;
    par.tensorParallel = 8;
    par.pipelineParallel = 8;
    TrainingMemory mem = trainingMemoryPerDevice(
        cfg, par, 64, 2048, Recompute::Full);
    double params = parametersPerDevice(cfg, par);
    EXPECT_DOUBLE_EQ(mem.weights, params * 2.0);
    EXPECT_DOUBLE_EQ(mem.gradients, params * 2.0);
    EXPECT_DOUBLE_EQ(mem.optimizer, params * 12.0);
    EXPECT_GT(mem.activations, 0.0);
    EXPECT_DOUBLE_EQ(mem.total(), mem.weights + mem.gradients +
                                      mem.optimizer + mem.activations);
}

TEST(Footprint, RecomputationOrdering)
{
    TransformerConfig cfg = models::gpt175b();
    ParallelConfig par;
    par.tensorParallel = 8;
    par.pipelineParallel = 8;
    par.sequenceParallel = true;
    double none = trainingMemoryPerDevice(cfg, par, 64, 2048,
                                          Recompute::None)
                      .activations;
    double sel = trainingMemoryPerDevice(cfg, par, 64, 2048,
                                         Recompute::Selective)
                     .activations;
    double full = trainingMemoryPerDevice(cfg, par, 64, 2048,
                                          Recompute::Full)
                      .activations;
    EXPECT_GT(none, sel);
    EXPECT_GT(sel, full);
}

TEST(Footprint, FullRecomputeStoresOnlyCheckpointsPerMicrobatch)
{
    // With full recomputation the in-flight microbatches keep only
    // layer-input checkpoints; one working set exists at a time, so
    // doubling the batch (more in-flight microbatches capped at p)
    // must not double the footprint.
    TransformerConfig cfg = models::gpt1008b();
    ParallelConfig par;
    par.tensorParallel = 8;
    par.pipelineParallel = 64;
    double act = trainingMemoryPerDevice(cfg, par, 512, 2048,
                                         Recompute::Full)
                     .activations;
    // 64 in-flight checkpoints of 2 layers each plus one working
    // set: far below the no-recompute footprint (the checkpoint term
    // itself is sizable at PP=64).
    double none = trainingMemoryPerDevice(cfg, par, 512, 2048,
                                          Recompute::None)
                      .activations;
    EXPECT_LT(act, none / 5.0);
}

TEST(Footprint, GPipeHoldsMoreActivations)
{
    TransformerConfig cfg = models::gpt175b();
    ParallelConfig f1b;
    f1b.tensorParallel = 8;
    f1b.pipelineParallel = 8;
    f1b.schedule = PipelineSchedule::OneFOneB;
    ParallelConfig gpipe = f1b;
    gpipe.schedule = PipelineSchedule::GPipe;
    double a = trainingMemoryPerDevice(cfg, f1b, 64, 2048,
                                       Recompute::Selective)
                   .activations;
    double b = trainingMemoryPerDevice(cfg, gpipe, 64, 2048,
                                       Recompute::Selective)
                   .activations;
    EXPECT_GT(b, a);  // 64 microbatches in flight vs 8
}

TEST(Footprint, SequenceParallelOnlyShrinksActivations)
{
    TransformerConfig cfg = models::gpt175b();
    ParallelConfig par;
    par.tensorParallel = 8;
    par.pipelineParallel = 8;
    TrainingMemory no_sp = trainingMemoryPerDevice(
        cfg, par, 64, 2048, Recompute::Selective);
    par.sequenceParallel = true;
    TrainingMemory sp = trainingMemoryPerDevice(
        cfg, par, 64, 2048, Recompute::Selective);
    EXPECT_LT(sp.activations, no_sp.activations);
    EXPECT_DOUBLE_EQ(sp.weights, no_sp.weights);
    EXPECT_DOUBLE_EQ(sp.optimizer, no_sp.optimizer);
}

TEST(Footprint, Table1ConfigsFitA100)
{
    // The paper's Table 1 runs existed, so their footprints must fit
    // an 80 GiB A100 in our accounting too.
    struct Case
    {
        TransformerConfig cfg;
        long long batch, dp, tp, pp;
        bool sp;
        Recompute r;
    };
    const Case cases[] = {
        {models::gpt175b(), 64, 1, 8, 8, false, Recompute::Full},
        {models::gpt530b(), 280, 1, 8, 35, true,
         Recompute::Selective},
        {models::gpt1008b(), 512, 1, 8, 64, false, Recompute::Full},
    };
    for (const Case &c : cases) {
        ParallelConfig par;
        par.dataParallel = c.dp;
        par.tensorParallel = c.tp;
        par.pipelineParallel = c.pp;
        par.sequenceParallel = c.sp;
        TrainingMemory mem = trainingMemoryPerDevice(
            c.cfg, par, c.batch, 2048, c.r);
        EXPECT_LT(mem.total(), 80 * GiB) << c.cfg.name;
    }
}

} // namespace
} // namespace optimus
