/**
 * @file
 * Tests for the serving-throughput extension and the TPU presets.
 */

#include <gtest/gtest.h>

#include "comm/collective.h"
#include "hw/precision.h"
#include "hw/presets.h"
#include "inference/engine.h"
#include "inference/serving.h"
#include "planner/planner.h"
#include "util/error.h"
#include "util/units.h"
#include "workload/presets.h"

namespace optimus {
namespace {

ServingOptions
chatOptions(int tp)
{
    ServingOptions opts;
    opts.tensorParallel = tp;
    opts.promptLength = 512;
    opts.generateLength = 256;
    return opts;
}

TEST(Serving, ThroughputGrowsWithBatch)
{
    System sys = presets::dgxA100(1);
    TransformerConfig cfg = models::llama2_13b();
    ServingOptions opts = chatOptions(1);
    double prev = 0.0;
    for (long long b : {1LL, 4LL, 16LL, 64LL}) {
        ServingPoint pt = evaluateServingPoint(cfg, sys, opts, b);
        EXPECT_GT(pt.tokensPerSecond, prev) << "batch " << b;
        prev = pt.tokensPerSecond;
    }
}

TEST(Serving, BatchingTradesLatencyForThroughput)
{
    System sys = presets::dgxA100(1);
    TransformerConfig cfg = models::llama2_13b();
    ServingOptions opts = chatOptions(1);
    ServingPoint b1 = evaluateServingPoint(cfg, sys, opts, 1);
    ServingPoint b32 = evaluateServingPoint(cfg, sys, opts, 32);
    // Paper Sec. 6.1: throughput up, latency growth "rather modest".
    EXPECT_GT(b32.tokensPerSecond, 8.0 * b1.tokensPerSecond);
    EXPECT_LT(b32.interTokenLatency, 4.0 * b1.interTokenLatency);
}

TEST(Serving, StepTimeConsistency)
{
    System sys = presets::dgxA100(1);
    ServingOptions opts = chatOptions(1);
    ServingPoint pt = evaluateServingPoint(models::llama2_7b(), sys,
                                           opts, 8);
    EXPECT_GT(pt.interTokenLatency, pt.decodeStepTime);
    EXPECT_NEAR(pt.tokensPerSecond,
                8.0 / pt.interTokenLatency, 1e-6);
    EXPECT_NEAR(pt.requestsPerSecond * opts.generateLength,
                pt.tokensPerSecond, 1e-6);
    EXPECT_GT(pt.timeToFirstToken, 0.0);
}

TEST(Serving, KvCacheLimitsBatch)
{
    System sys = presets::dgxA100(1);
    TransformerConfig cfg = models::llama2_13b();
    ServingOptions opts = chatOptions(1);
    opts.promptLength = 3000;
    opts.generateLength = 1000;
    // 13B weights 24 GiB leave ~56 GiB: each 4000-token sequence
    // needs ~3 GiB of KV, so batch 32 must overflow.
    ServingPoint small = evaluateServingPoint(cfg, sys, opts, 4);
    ServingPoint large = evaluateServingPoint(cfg, sys, opts, 32);
    EXPECT_TRUE(small.fits);
    EXPECT_FALSE(large.fits);

    ServingPoint best = maxThroughputPoint(cfg, sys, opts);
    EXPECT_TRUE(best.fits);
    EXPECT_LT(best.batch, 32);
}

TEST(Serving, MaxThroughputRejectsOversizedModel)
{
    System sys = presets::dgxA100(1);
    ServingOptions opts = chatOptions(1);  // 70B does not fit 1 GPU
    EXPECT_THROW(
        maxThroughputPoint(models::llama2_70b(), sys, opts),
        ConfigError);
    EXPECT_NO_THROW(maxThroughputPoint(models::llama2_70b(), sys,
                                       chatOptions(2)));
}

TEST(Serving, CostPerTokenDecreasesWithBatch)
{
    System sys = presets::dgxH100(1);
    TransformerConfig cfg = models::llama2_13b();
    ServingOptions opts = chatOptions(1);
    ServingPoint b1 = evaluateServingPoint(cfg, sys, opts, 1);
    ServingPoint b32 = evaluateServingPoint(cfg, sys, opts, 32);
    double c1 = costPerMillionTokens(sys, opts, b1);
    double c32 = costPerMillionTokens(sys, opts, b32);
    EXPECT_LT(c32, c1 / 8.0);
    // Sanity: single-digit dollars per Mtok at high batch,
    // double/triple digits unbatched.
    EXPECT_GT(c1, 1.0);
    EXPECT_LT(c32, 5.0);
}

/** The engine's decode of one token at @p context (batch @p batch). */
InferenceReport
engineOneToken(const TransformerConfig &cfg, const System &sys,
               const ServingOptions &opts, long long batch,
               long long context)
{
    InferenceOptions io;
    io.precision = opts.precision;
    io.kvPrecision = opts.kvPrecision;
    io.tensorParallel = opts.tensorParallel;
    io.collectiveAlgorithm = opts.collectiveAlgorithm;
    io.batch = batch;
    io.promptLength = context - 1;
    io.generateLength = 1;
    return evaluateInference(cfg, sys, io);
}

TEST(Serving, DecodeStepIsTheEngineDecodeStep)
{
    // At tp8 on one node the serving decode step is the engine's
    // per-token decode at the mean context.
    System sys = presets::dgxH100(1);
    TransformerConfig cfg = models::llama2_70b();
    ServingOptions opts = chatOptions(8);
    ServingPoint pt = evaluateServingPoint(cfg, sys, opts, 8);
    const long long mean_context =
        opts.promptLength + opts.generateLength / 2;
    double engine =
        engineOneToken(cfg, sys, opts, 8, mean_context).decode.time;
    EXPECT_NEAR(engine, pt.decodeStepTime, 1e-12 * engine);
    EXPECT_NEAR(17.1473e-3, pt.decodeStepTime, 1e-7);
}

TEST(Serving, Tp16AcrossTwoNodesPaysInterNodeAllReduce)
{
    // Regression: the serving decode step pinned its TP all-reduce
    // intra-node, so tp16 over two 8-GPU nodes threw "intra-node group
    // larger than a node" while the engine evaluated it.
    System sys = presets::dgxH100(2);
    TransformerConfig cfg = models::llama2_70b();
    ServingPlannerOptions po;
    po.serving = chatOptions(16);
    po.tensorParallelChoices = {16};
    std::vector<ServingPlan> plans = planServing(cfg, sys, po);
    ASSERT_FALSE(plans.empty());
    EXPECT_EQ(16, plans.front().tensorParallel);
    const ServingPoint &pt = plans.front().point;

    InferenceReport engine = engineOneToken(
        cfg, sys, po.serving, pt.batch,
        po.serving.promptLength + po.serving.generateLength / 2);
    EXPECT_NEAR(engine.decode.time, pt.decodeStepTime,
                1e-12 * engine.decode.time);
    CollectiveResult inter = systemCollective(
        sys, CollectiveKind::AllReduce,
        double(pt.batch) * cfg.hiddenSize *
            precisionBytes(po.serving.precision),
        16, GroupScope::InterNode);
    EXPECT_NEAR(2.0 * double(cfg.numLayers) * inter.time,
                engine.decode.commTime, 1e-12 * inter.time);
}

TEST(Serving, EvaluatesPromptOneGenerateOne)
{
    // The smallest legal request: one prompt token, one generated
    // token, so the decode step runs at context 1.
    System sys = presets::dgxA100(1);
    ServingOptions opts = chatOptions(2);
    opts.promptLength = 1;
    opts.generateLength = 1;
    ServingPoint pt =
        evaluateServingPoint(models::llama2_13b(), sys, opts, 4);
    EXPECT_NEAR(13.26493202039e-3, pt.decodeStepTime,
                1e-9 * pt.decodeStepTime);
    EXPECT_NEAR(12.25277217585e-3, pt.timeToFirstToken,
                1e-9 * pt.timeToFirstToken);
    EXPECT_NEAR(156.7539136452, pt.tokensPerSecond,
                1e-9 * pt.tokensPerSecond);
}

TEST(Serving, RejectsBadInputs)
{
    System sys = presets::dgxA100(1);
    ServingOptions opts = chatOptions(1);
    EXPECT_THROW(evaluateServingPoint(models::llama2_7b(), sys, opts,
                                      0),
                 ConfigError);
    ServingPoint empty;
    EXPECT_THROW(costPerMillionTokens(sys, opts, empty), ConfigError);
}

// ---- TPU presets -------------------------------------------------------

TEST(Tpu, PresetNumbers)
{
    Device v4 = presets::tpuV4();
    EXPECT_DOUBLE_EQ(v4.matrixFlops(Precision::BF16), 275 * TFLOPS);
    EXPECT_DOUBLE_EQ(v4.dram().bandwidth, 1.2 * TBps);
    EXPECT_EQ(v4.level("CMEM").name, "CMEM");

    Device v5p = presets::tpuV5p();
    EXPECT_DOUBLE_EQ(v5p.matrixFlops(Precision::BF16), 459 * TFLOPS);
    EXPECT_DOUBLE_EQ(v5p.dram().capacity, 95 * GiB);
}

TEST(Tpu, PodTopology)
{
    System pod = presets::tpuV4Pod(2);
    EXPECT_EQ(pod.totalDevices(), 128);
    EXPECT_EQ(pod.devicesPerNode, 64);
    EXPECT_EQ(pod.linkForGroup(64).name, "ICI-v4");
    EXPECT_EQ(pod.linkForGroup(65).name, "DCN");
}

TEST(Tpu, TrainsGptInBf16)
{
    // The framework extends beyond GPUs (paper Sec. 4.1 note).
    ParallelConfig par;
    par.dataParallel = 2;
    par.tensorParallel = 8;
    par.pipelineParallel = 4;
    TrainingOptions opts;
    opts.precision = Precision::BF16;
    TrainingReport rep = evaluateTraining(
        models::gpt175b(), presets::tpuV4Pod(1), par, 64, opts);
    EXPECT_GT(rep.timePerBatch, 0.0);
    EXPECT_GT(rep.mfu, 0.2);
    EXPECT_LT(rep.mfu, 0.8);
}

TEST(Tpu, V5pBeatsV4)
{
    InferenceOptions opts;
    opts.precision = Precision::BF16;
    double v4 = evaluateInference(models::llama2_13b(),
                                  presets::tpuV4Pod(1), opts)
                    .totalLatency;
    double v5 = evaluateInference(models::llama2_13b(),
                                  presets::tpuV5pPod(1), opts)
                    .totalLatency;
    EXPECT_LT(v5, v4);
}

} // namespace
} // namespace optimus
