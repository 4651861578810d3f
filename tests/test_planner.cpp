/**
 * @file
 * Tests for the parallelization planner.
 */

#include <map>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "hw/presets.h"
#include "memory/footprint.h"
#include "plan/plan.h"
#include "planner/planner.h"
#include "roofline/gemm.h"
#include "trace/trace.h"
#include "util/error.h"
#include "util/units.h"
#include "workload/presets.h"

namespace optimus {
namespace {

TEST(TrainingPlanner, FindsFittingPlansAndRanksThem)
{
    TrainingPlannerOptions opts;
    opts.keep = 50;
    std::vector<TrainingPlan> plans = planTraining(
        models::gpt175b(), presets::dgxA100(16), 128, opts);
    ASSERT_FALSE(plans.empty());
    for (size_t i = 1; i < plans.size(); ++i) {
        EXPECT_LE(plans[i - 1].report.timePerBatch,
                  plans[i].report.timePerBatch);
    }
    for (const TrainingPlan &p : plans) {
        EXPECT_EQ(p.parallel.totalDevices(), 128);
        EXPECT_LE(p.report.memory.total(), 80 * GiB);
    }
}

TEST(TrainingPlanner, BestPlanBeatsANaiveMapping)
{
    System sys = presets::dgxA100(16);
    TrainingPlan best = bestTrainingPlan(models::gpt175b(), sys, 128);

    // A valid but clumsy hand mapping: PP-heavy, full recompute.
    ParallelConfig naive;
    naive.dataParallel = 2;
    naive.tensorParallel = 2;
    naive.pipelineParallel = 32;
    TrainingOptions nopts;
    nopts.recompute = Recompute::Full;
    double naive_t =
        evaluateTraining(models::gpt175b(), sys, naive, 128, nopts)
            .timePerBatch;

    EXPECT_LT(best.report.timePerBatch, naive_t);
    EXPECT_GT(best.report.mfu, 0.40);
}

TEST(TrainingPlanner, RespectsMemoryOverPerformance)
{
    // Without recomputation GPT-175B TP8/PP2-style plans overflow;
    // every returned plan must fit.
    TrainingPlannerOptions opts;
    opts.recomputeChoices = {Recompute::None};
    std::vector<TrainingPlan> plans = planTraining(
        models::gpt175b(), presets::dgxA100(8), 64, opts);
    for (const TrainingPlan &p : plans) {
        TrainingMemory mem = trainingMemoryPerDevice(
            models::gpt175b(), p.parallel, 64, 2048,
            p.options.recompute, p.options.memory);
        EXPECT_LE(mem.total(), 80 * GiB);
    }
}

TEST(TrainingPlanner, ThrowsWhenNothingFits)
{
    // One A100 node cannot hold GPT-530B under any mapping.
    EXPECT_THROW(
        bestTrainingPlan(models::gpt530b(), presets::dgxA100(1), 8),
        ConfigError);
}

TEST(TrainingPlanner, ZeroStageWidensTheSpace)
{
    // Allowing ZeRO adds fitting plans (every plain plan still fits,
    // and DP-sharded variants join) for a memory-tight MoE setup.
    TrainingPlannerOptions plain;
    plain.recomputeChoices = {Recompute::Selective};
    plain.zeroStages = {0};
    plain.keep = 1000;
    TrainingPlannerOptions zero = plain;
    zero.zeroStages = {0, 2};

    System sys = presets::dgxA100(4);
    size_t n_plain =
        planTraining(models::mixtral8x7b(), sys, 32, plain).size();
    size_t n_zero =
        planTraining(models::mixtral8x7b(), sys, 32, zero).size();
    EXPECT_GT(n_plain, 0u);
    EXPECT_GT(n_zero, n_plain);
}

void
expectSameEstimate(const KernelEstimate &want, const KernelEstimate &got)
{
    EXPECT_EQ(want.kernel, got.kernel);
    EXPECT_EQ(want.flops, got.flops);
    EXPECT_EQ(want.bytesPerLevel, got.bytesPerLevel);
    EXPECT_EQ(want.computeTime, got.computeTime);
    EXPECT_EQ(want.memTimePerLevel, got.memTimePerLevel);
    EXPECT_EQ(want.overhead, got.overhead);
    EXPECT_EQ(want.time, got.time);
    EXPECT_EQ(want.boundLevel, got.boundLevel);
}

void
expectSameReport(const TrainingReport &want, const TrainingReport &got)
{
    EXPECT_EQ(want.time.forward, got.time.forward);
    EXPECT_EQ(want.time.backward, got.time.backward);
    EXPECT_EQ(want.time.recompute, got.time.recompute);
    EXPECT_EQ(want.time.embedding, got.time.embedding);
    EXPECT_EQ(want.time.tpComm, got.time.tpComm);
    EXPECT_EQ(want.time.cpComm, got.time.cpComm);
    EXPECT_EQ(want.time.epComm, got.time.epComm);
    EXPECT_EQ(want.time.ppComm, got.time.ppComm);
    EXPECT_EQ(want.time.dpComm, got.time.dpComm);
    EXPECT_EQ(want.time.bubble, got.time.bubble);
    EXPECT_EQ(want.time.optimizer, got.time.optimizer);
    EXPECT_EQ(want.timePerBatch, got.timePerBatch);
    EXPECT_EQ(want.memory.weights, got.memory.weights);
    EXPECT_EQ(want.memory.gradients, got.memory.gradients);
    EXPECT_EQ(want.memory.optimizer, got.memory.optimizer);
    EXPECT_EQ(want.memory.activations, got.memory.activations);
    EXPECT_EQ(want.microbatches, got.microbatches);
    EXPECT_EQ(want.bubbleFraction, got.bubbleFraction);
    EXPECT_EQ(want.modelFlops, got.modelFlops);
    EXPECT_EQ(want.mfu, got.mfu);
    expectSameEstimate(want.layerForward, got.layerForward);
    expectSameEstimate(want.layerBackward, got.layerBackward);
}

TEST(TrainingPlanner, PlansEqualStandaloneEvaluation)
{
    // Every ranked plan's report is exactly what a standalone
    // evaluateTraining of its (parallel, options) returns: dense and
    // MoE models, FlashAttention on and off, interleaved schedules,
    // every recompute choice and ZeRO stages 0, 1 and 3.
    const struct
    {
        const char *label;
        TransformerConfig model;
        System sys;
        long long batch;
    } cases[] = {
        {"gpt-175b", models::gpt175b(), presets::dgxA100(16), 128},
        {"mixtral-8x7b", models::mixtral8x7b(), presets::dgxA100(2), 64},
    };
    for (const auto &c : cases) {
        for (bool flash : {false, true}) {
            SCOPED_TRACE(std::string(c.label) +
                         (flash ? " flash" : " unfused"));
            TrainingPlannerOptions opts;
            opts.flashAttention = flash;
            opts.zeroStages = {0, 1, 3};
            opts.microbatchSizes = {1, 2};
            opts.keep = 100000;
            std::vector<TrainingPlan> plans =
                planTraining(c.model, c.sys, c.batch, opts);
            ASSERT_FALSE(plans.empty());
            bool interleaved = false;
            bool recompute[3] = {false, false, false};
            for (const TrainingPlan &p : plans) {
                interleaved |= p.parallel.interleavedStages > 1;
                recompute[static_cast<int>(p.options.recompute)] = true;
                expectSameReport(evaluateTraining(c.model, c.sys,
                                                  p.parallel, c.batch,
                                                  p.options),
                                 p.report);
            }
            EXPECT_TRUE(interleaved);
            EXPECT_TRUE(recompute[0] && recompute[1] && recompute[2]);
        }
    }
}

TEST(TrainingPlanner, BuildsOneLayerPartPerTpMicrobatchGroup)
{
    // Inside one problem the layer op lists depend only on (tp,
    // microbatch), so the planner lowers and evaluates them once per
    // such group among the surviving candidates, not once per plan.
    const TransformerConfig model = models::gpt175b();
    const System sys = presets::dgxA100(16);
    TraceSession session;
    TrainingPlannerOptions opts;
    opts.microbatchSizes = {1, 2};
    opts.zeroStages = {0, 1};
    opts.keep = 100000;  // every surviving candidate
    opts.trace = &session;

    auto lookups = [] {
        TileCacheStats st = tileCacheStats();
        return st.hits + st.misses;
    };
    const unsigned long long before = lookups();
    std::vector<TrainingPlan> plans = planTraining(model, sys, 128, opts);
    const unsigned long long planner_lookups = lookups() - before;

    std::map<std::pair<long long, long long>, const TrainingPlan *>
        groups;
    for (const TrainingPlan &p : plans)
        groups.emplace(std::make_pair(p.parallel.tensorParallel,
                                      p.parallel.microbatchSize),
                       &p);
    EXPECT_EQ(session.counter("planner/layer-templates"),
              double(groups.size()));
    EXPECT_LT(groups.size() * 4, plans.size());

    // Every tile-search lookup the call made came from those layer
    // parts: the mapping steps reuse their estimates, so the layer
    // lists are evaluated once per group, as they are lowered.
    unsigned long long part_lookups = 0;
    for (const auto &g : groups) {
        const unsigned long long b = lookups();
        plan::lowerLayers(model, sys, g.second->parallel, 128,
                          g.second->options);
        part_lookups += lookups() - b;
    }
    EXPECT_GT(part_lookups, 0u);
    EXPECT_EQ(planner_lookups, part_lookups);
}

TEST(ServingPlanner, RanksByPerDeviceThroughput)
{
    ServingPlannerOptions opts;
    opts.serving.promptLength = 512;
    opts.serving.generateLength = 256;
    std::vector<ServingPlan> plans = planServing(
        models::llama2_13b(), presets::dgxA100(1), opts);
    ASSERT_FALSE(plans.empty());
    for (size_t i = 1; i < plans.size(); ++i) {
        EXPECT_GE(plans[i - 1].tokensPerSecondPerDevice,
                  plans[i].tokensPerSecondPerDevice);
    }
    // Moderate TP wins per-device (sharded KV allows bigger
    // batches); high TP loses to the per-token all-reduces.
    long long winner = plans.front().tensorParallel;
    EXPECT_LE(winner, 4);
    EXPECT_GT(plans.front().tokensPerSecondPerDevice,
              plans.back().tokensPerSecondPerDevice);
}

TEST(ServingPlanner, LatencySloCapsBatch)
{
    ServingPlannerOptions loose;
    loose.serving.promptLength = 512;
    loose.serving.generateLength = 256;
    ServingPlannerOptions tight = loose;
    tight.maxInterTokenLatency = 25e-3;

    System sys = presets::dgxA100(1);
    ServingPlan free_plan =
        planServing(models::llama2_13b(), sys, loose).front();
    std::vector<ServingPlan> tight_plans =
        planServing(models::llama2_13b(), sys, tight);
    ASSERT_FALSE(tight_plans.empty());
    for (const ServingPlan &p : tight_plans)
        EXPECT_LE(p.point.interTokenLatency, 25e-3);
    EXPECT_LE(tight_plans.front().point.batch,
              free_plan.point.batch);
}

TEST(ServingPlanner, SkipsTooSmallDeployments)
{
    // 70B needs at least 2 A100s: TP1 must not appear.
    ServingPlannerOptions opts;
    std::vector<ServingPlan> plans = planServing(
        models::llama2_70b(), presets::dgxA100(1), opts);
    ASSERT_FALSE(plans.empty());
    for (const ServingPlan &p : plans)
        EXPECT_GE(p.tensorParallel, 2);
}

} // namespace
} // namespace optimus
