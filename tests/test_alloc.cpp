/**
 * @file
 * Allocation regression gate for the evaluation hot path.
 *
 * This executable replaces the global operator new/delete family with
 * counting versions, so it must stay a test binary of its own. Heap
 * allocation counts are deterministic for a given input, which makes
 * them a machine-independent gate on the cost of the success path:
 * config checks, per-op roofline estimates and the tile search must
 * not touch the heap when nothing fails.
 */

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "config/serialize.h"
#include "hw/presets.h"
#include "planner/planner.h"
#include "roofline/gemm.h"
#include "training/trainer.h"
#include "workload/graph.h"
#include "workload/presets.h"

namespace {

std::atomic<long long> g_allocations{0};

void *
countedAlloc(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t size, std::align_val_t align)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    void *p = nullptr;
    std::size_t a = static_cast<std::size_t>(align);
    if (a < sizeof(void *))
        a = sizeof(void *);
    if (posix_memalign(&p, a, size == 0 ? 1 : size) != 0)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(size);
    } catch (...) {
        return nullptr;
    }
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(size);
    } catch (...) {
        return nullptr;
    }
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace optimus {
namespace {

/** Heap allocations made while running @p f. */
template <class F>
long long
allocationsOf(F &&f)
{
    const long long before = g_allocations.load(std::memory_order_relaxed);
    f();
    return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(Alloc, CounterSeesTheHeap)
{
    // Guards the gate itself: if the replacement were not linked in,
    // every count below would read 0 and prove nothing.
    EXPECT_GE(allocationsOf([] {
                  auto *p = new std::vector<double>(8);
                  delete p;
              }),
              2);
}

TEST(Alloc, SystemValidateOnPresetsIsFree)
{
    for (const std::string &name : config::systemPresetNames()) {
        const System sys = config::systemPreset(name, 2);
        EXPECT_EQ(allocationsOf([&] { sys.validate(); }), 0) << name;
    }
}

TEST(Alloc, EvaluateOpOnWarmTileCacheIsFree)
{
    const Device dev = presets::a100_80gb();
    Op op;
    op.name = "fc1";  // short enough for the small-string buffer
    op.kind = OpKind::Gemm;
    op.gemm = {2048, 6144, 12288, Precision::FP16};
    op.count = 2;
    evaluateOp(dev, op);  // fills the tile cache
    KernelEstimate est;
    EXPECT_EQ(allocationsOf([&] { est = evaluateOp(dev, op); }), 0);
    EXPECT_GT(est.time, 0.0);
}

TEST(Alloc, SpanBoundEvaluateOpIsFreeOnColdCache)
{
    // The decode qk^T op of Llama-2-70B at tp8, rebound to a new span
    // per call as the evaluator does per generated token. Span-bound
    // shapes bypass the tile memo, so even a cold cache neither grows
    // nor allocates: 133 allocations and 128 new cache entries for
    // these 64 calls while every shape was memoized, 0 and 0 since.
    const Device dev = presets::h100_sxm();
    const std::vector<Op> ops =
        decodeLayerOps(models::llama2_70b(), 1, 512, 8, Precision::FP16);
    auto it = std::find_if(ops.begin(), ops.end(),
                           [](const Op &o) { return o.name == "qk^T"; });
    ASSERT_NE(it, ops.end());
    Op op = *it;
    ASSERT_EQ(op.spanDim, SpanDim::GemmN);
    tileCacheClear();
    KernelEstimate est;
    EXPECT_EQ(allocationsOf([&] {
                  for (long long span = 513; span < 513 + 64; ++span) {
                      bindSpan(op, span);
                      est = evaluateOp(dev, op);
                  }
              }),
              0);
    EXPECT_EQ(tileCacheStats().entries, 0u);
    EXPECT_GT(est.time, 0.0);
}

TEST(Alloc, TrainingEvaluationStaysUnderBound)
{
    const TransformerConfig model = models::gpt175b();
    const System sys = presets::dgxA100(8);
    ParallelConfig par;
    par.tensorParallel = 8;
    par.pipelineParallel = 8;
    par.microbatchSize = 1;
    const TrainingOptions opts;
    evaluateTraining(model, sys, par, 64, opts);  // warm the tile cache
    const long long n = allocationsOf(
        [&] { evaluateTraining(model, sys, par, 64, opts); });
    // 509 allocations per call while checks built their messages up
    // front and evaluateOps built a heap-backed estimate per op; 86
    // while lowering built the forward op list twice and copied it
    // twice; 77 while the recompute step copied the forward list; 71
    // since it shares it. What remains is the lowered plan itself (op
    // names, step and part vectors) and the folded report.
    EXPECT_LE(n, 77);
    RecordProperty("allocations", static_cast<int>(n));
}

TEST(Alloc, SelectiveRecomputeTrainingStaysUnderBound)
{
    // Table 1's GPT-175B mapping: tp8 x pp8 with sequence parallelism
    // and selective recomputation, whose fraction is measured on the
    // forward op list the recompute step replays.
    const TransformerConfig model = models::gpt175b();
    const System sys = presets::dgxA100(8);
    ParallelConfig par;
    par.tensorParallel = 8;
    par.pipelineParallel = 8;
    par.sequenceParallel = true;
    par.microbatchSize = 1;
    TrainingOptions opts;
    opts.recompute = Recompute::Selective;
    evaluateTraining(model, sys, par, 64, opts);  // warm the tile cache
    const long long n = allocationsOf(
        [&] { evaluateTraining(model, sys, par, 64, opts); });
    // 93 while lowering built the forward op list three times (step,
    // backward list, recompute fraction); 77 while the recompute step
    // copied it; 71 since.
    EXPECT_LE(n, 77);
    RecordProperty("allocations", static_cast<int>(n));
}

TEST(Alloc, PlannerAllocationsPerPlanStayUnderBound)
{
    // perf_engine's planner sweep: GPT-175B on 16 DGX-A100 nodes,
    // batch 128, microbatch {1, 2}, every plan kept. Each plan binds
    // its mapping to the layer part of its (tp, microbatch) group, so
    // a plan pays for its mapping steps and report, not for the layer
    // op lists and their evaluation.
    const TransformerConfig model = models::gpt175b();
    const System sys = presets::dgxA100(16);
    TrainingPlannerOptions opts;
    opts.microbatchSizes = {1, 2};
    opts.keep = 64;
    opts.threads = 1;
    planTraining(model, sys, 128, opts);  // warm the tile cache
    std::vector<TrainingPlan> plans;
    const long long n =
        allocationsOf([&] { plans = planTraining(model, sys, 128, opts); });
    ASSERT_EQ(plans.size(), 38u);
    const double per_plan = double(n) / double(plans.size());
    // 3055 allocations (80.4 per plan) while every candidate lowered
    // and evaluated its own layer op lists and model-FLOPs lists;
    // 1403 (36.9 per plan) since.
    EXPECT_LE(per_plan, 37.0);
    RecordProperty("allocations", static_cast<int>(n));
    RecordProperty("allocations_per_plan_x10",
                   static_cast<int>(10.0 * per_plan));
}

} // namespace
} // namespace optimus
