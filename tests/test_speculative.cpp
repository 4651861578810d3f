/**
 * @file
 * Tests for the speculative-decoding extension.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "hw/precision.h"
#include "hw/presets.h"
#include "inference/engine.h"
#include "inference/speculative.h"
#include "util/error.h"
#include "workload/presets.h"

namespace optimus {
namespace {

SpeculativeOptions
defaults()
{
    SpeculativeOptions opts;
    opts.gamma = 4;
    opts.acceptanceRate = 0.8;
    opts.context = 400;
    return opts;
}

TEST(Speculative, SpeedsUpMemoryBoundDecoding)
{
    System sys = presets::dgxA100(1);
    SpeculativeReport rep = evaluateSpeculative(
        models::llama2_70b(), models::llama2_7b(), sys, defaults());
    // Drafting with a 10x smaller model at 80% acceptance should
    // roughly double throughput.
    EXPECT_GT(rep.speedup, 1.3);
    EXPECT_LT(rep.speedup, 3.5);
    EXPECT_GT(rep.tokensPerSecond, rep.baselineTokensPerSecond);
}

TEST(Speculative, ExpectedTokensFollowsGeometricSum)
{
    System sys = presets::dgxA100(1);
    SpeculativeOptions opts = defaults();
    SpeculativeReport rep = evaluateSpeculative(
        models::llama2_13b(), models::llama2_7b(), sys, opts);
    double a = opts.acceptanceRate;
    double expected = (1.0 - std::pow(a, 5.0)) / (1.0 - a);
    EXPECT_NEAR(rep.expectedTokensPerCycle, expected, 1e-12);
    EXPECT_NEAR(rep.cycleTime,
                4.0 * rep.draftStepTime + rep.verifyTime, 1e-12);
}

TEST(Speculative, VerifyCostsLittleMoreThanOneStep)
{
    // The verification pass streams the weights once for gamma+1
    // tokens: it must cost well under gamma+1 decode steps.
    System sys = presets::dgxA100(1);
    SpeculativeReport rep = evaluateSpeculative(
        models::llama2_70b(), models::llama2_7b(), sys, defaults());
    double baseline_step = 1.0 / rep.baselineTokensPerSecond;
    EXPECT_LT(rep.verifyTime, baseline_step * 1.5);
}

TEST(Speculative, Tp16AcrossTwoNodesPaysInterNodeAllReduce)
{
    // Regression: the decode step pinned its TP all-reduce intra-node,
    // so tp16 over two 8-GPU nodes threw. The plain decode step it
    // compares against must be the engine's one-token decode, which
    // charges the inter-node all-reduce.
    System sys = presets::dgxH100(2);
    SpeculativeOptions opts = defaults();
    opts.tensorParallel = 16;
    SpeculativeReport rep = evaluateSpeculative(
        models::llama2_70b(), models::llama2_7b(), sys, opts);

    InferenceOptions io;
    io.precision = opts.precision;
    io.kvPrecision = opts.precision;
    io.tensorParallel = 16;
    io.promptLength = opts.context - 1;
    io.generateLength = 1;
    InferenceReport one =
        evaluateInference(models::llama2_70b(), sys, io);
    EXPECT_GT(one.decode.commTime, 0.0);
    EXPECT_NEAR(one.decode.time, 1.0 / rep.baselineTokensPerSecond,
                1e-12 * one.decode.time);
    EXPECT_GT(rep.verifyTime, one.decode.commTime);
}

TEST(Speculative, LowAcceptanceKillsTheGain)
{
    System sys = presets::dgxA100(1);
    SpeculativeOptions good = defaults();
    SpeculativeOptions bad = defaults();
    bad.acceptanceRate = 0.05;
    double s_good = evaluateSpeculative(models::llama2_70b(),
                                        models::llama2_7b(), sys,
                                        good)
                        .speedup;
    double s_bad = evaluateSpeculative(models::llama2_70b(),
                                       models::llama2_7b(), sys, bad)
                       .speedup;
    EXPECT_GT(s_good, s_bad);
    EXPECT_LT(s_bad, 1.0);  // not worth it
}

TEST(Speculative, RejectsBadSetups)
{
    System sys = presets::dgxA100(1);
    SpeculativeOptions opts = defaults();
    opts.acceptanceRate = 1.0;
    EXPECT_THROW(evaluateSpeculative(models::llama2_70b(),
                                     models::llama2_7b(), sys, opts),
                 ConfigError);
    opts = defaults();
    // Draft must be smaller than the target.
    EXPECT_THROW(evaluateSpeculative(models::llama2_7b(),
                                     models::llama2_70b(), sys, opts),
                 ConfigError);
}

/** The engine's one-token decode of @p queries queries at context. */
double
engineStep(const TransformerConfig &cfg, const System &sys,
           const SpeculativeOptions &opts, long long queries,
           long long tp)
{
    InferenceOptions io;
    io.precision = opts.precision;
    io.kvPrecision = opts.precision;
    io.tensorParallel = tp;
    io.batch = queries;
    io.promptLength = opts.context - 1;
    io.generateLength = 1;
    return evaluateInference(cfg, sys, io).decode.time;
}

TEST(Speculative, StepsAreTheEngineDecodeStep)
{
    // Draft, verify and plain target steps are each the engine's
    // one-token decode: the draft unsharded at one query, the target
    // at its TP degree with gamma + 1 queries (verify) or one.
    struct Case
    {
        TransformerConfig target;
        TransformerConfig draft;
        System sys;
        Precision precision;
        long long tp;
    };
    const Case cases[] = {
        {models::llama2_70b(), models::llama2_7b(), presets::dgxA100(1),
         Precision::FP16, 8},
        {models::llama2_13b(), models::llama2_7b(), presets::dgxH100(1),
         Precision::FP8, 2},
    };
    double verify_fp16 = 0.0;
    for (const Case &c : cases) {
        SCOPED_TRACE(c.target.name + " " + precisionName(c.precision));
        SpeculativeOptions opts = defaults();
        opts.precision = c.precision;
        opts.tensorParallel = c.tp;
        SpeculativeReport rep =
            evaluateSpeculative(c.target, c.draft, c.sys, opts);

        double draft = engineStep(c.draft, c.sys, opts, 1, 1);
        double verify =
            engineStep(c.target, c.sys, opts, opts.gamma + 1, c.tp);
        double plain = engineStep(c.target, c.sys, opts, 1, c.tp);
        EXPECT_NEAR(draft, rep.draftStepTime, 1e-12 * draft);
        EXPECT_NEAR(verify, rep.verifyTime, 1e-12 * verify);
        EXPECT_NEAR(plain, 1.0 / rep.baselineTokensPerSecond,
                    1e-12 * plain);
        if (c.precision == Precision::FP16)
            verify_fp16 = rep.verifyTime;
    }

    EXPECT_NEAR(23.95510529288e-3, verify_fp16, 1e-9 * verify_fp16);
}

TEST(Speculative, EvaluatesAtContextOne)
{
    // The smallest legal context: the first decode step after an
    // empty prompt.
    System sys = presets::dgxA100(1);
    SpeculativeOptions opts = defaults();
    opts.context = 1;
    SpeculativeReport rep = evaluateSpeculative(
        models::llama2_70b(), models::llama2_7b(), sys, opts);
    EXPECT_NEAR(10.48379989966e-3, rep.draftStepTime,
                1e-9 * rep.draftStepTime);
    EXPECT_NEAR(100.0922680431e-3, rep.verifyTime,
                1e-9 * rep.verifyTime);
    EXPECT_NEAR(10.09109226579, rep.baselineTokensPerSecond,
                1e-9 * rep.baselineTokensPerSecond);
}

// Property: speedup is unimodal-ish in gamma; tiny gamma underuses
// the parallel verify, huge gamma wastes drafts.
class GammaSweepTest : public ::testing::TestWithParam<long long>
{};

TEST_P(GammaSweepTest, ReportsConsistentThroughput)
{
    System sys = presets::dgxA100(1);
    SpeculativeOptions opts = defaults();
    opts.gamma = GetParam();
    SpeculativeReport rep = evaluateSpeculative(
        models::llama2_70b(), models::llama2_7b(), sys, opts);
    EXPECT_NEAR(rep.tokensPerSecond,
                rep.expectedTokensPerCycle / rep.cycleTime, 1e-9);
    EXPECT_GT(rep.speedup, 0.5);
}

INSTANTIATE_TEST_SUITE_P(Sweep, GammaSweepTest,
                         ::testing::Values(1LL, 2LL, 4LL, 8LL, 16LL));

} // namespace
} // namespace optimus
