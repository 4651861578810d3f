/**
 * @file
 * Tests for the kernel-plan IR (src/plan): the plan fold reproduces
 * the evaluator reports, step identities are deterministic across
 * thread counts (with a shared estimate cache), decode range steps
 * match a per-token reference and expand token-major in the trace,
 * the JSON dump round trips, and the communication group-scope
 * convention is honored at its boundary (including the inference
 * per-layer TP all-reduce, which used to be pinned intra-node).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "comm/collective.h"
#include "exec/exec.h"
#include "hw/precision.h"
#include "hw/presets.h"
#include "plan/plan.h"
#include "roofline/gemm.h"
#include "trace/trace.h"
#include "util/error.h"
#include "workload/presets.h"

namespace optimus {
namespace {

void
expectNearRel(double expected, double actual, double rel)
{
    EXPECT_NEAR(expected, actual,
                rel * std::max(1.0, std::abs(expected)));
}

/** Table 1's GPT-175B mapping: 64 GPUs, tp8 x pp8, sequence parallel. */
void
table1Config(TransformerConfig *model, System *sys, ParallelConfig *par,
             TrainingOptions *opts)
{
    *model = models::gpt175b();
    *sys = presets::dgxA100(8);
    par->dataParallel = 1;
    par->tensorParallel = 8;
    par->pipelineParallel = 8;
    par->sequenceParallel = true;
    opts->recompute = Recompute::Selective;
}

/** A Table 2 style serving point: Llama2-13B, tp2, short generation. */
InferenceOptions
table2Options()
{
    InferenceOptions opts;
    opts.tensorParallel = 2;
    opts.batch = 2;
    opts.promptLength = 256;
    opts.generateLength = 8;
    return opts;
}

TEST(Plan, TrainingFoldReproducesEvaluatorReport)
{
    TransformerConfig model;
    System sys;
    ParallelConfig par;
    TrainingOptions opts;
    table1Config(&model, &sys, &par, &opts);

    plan::TrainingRun run =
        plan::runTraining(model, sys, par, 64, opts);
    TrainingReport rep =
        evaluateTraining(model, sys, par, 64, opts);

    // The public evaluator is a thin driver over the same pipeline.
    EXPECT_EQ(rep.timePerBatch, run.report.timePerBatch);
    EXPECT_EQ(rep.time.forward, run.report.time.forward);
    EXPECT_EQ(rep.time.tpComm, run.report.time.tpComm);
    EXPECT_EQ(rep.mfu, run.report.mfu);

    // An independent re-fold of the evaluated plan reproduces the
    // breakdown, and the step totals sum to the batch time.
    plan::FoldedTraining f = plan::foldTraining(run.plan, nullptr);
    EXPECT_EQ(f.time.total(), rep.time.total());
    double step_sum = 0.0;
    for (const plan::StepEval &ev : run.plan.evals)
        step_sum += ev.total;
    expectNearRel(rep.timePerBatch, step_sum, 1e-9);

    // Every category lands in exactly one breakdown field.
    EXPECT_GT(f.time.forward, 0.0);
    EXPECT_GT(f.time.backward, f.time.forward);
    EXPECT_GT(f.time.tpComm, 0.0);
    EXPECT_GT(f.time.bubble, 0.0);
}

TEST(Plan, InferenceFoldReproducesEvaluatorReport)
{
    TransformerConfig model = models::llama2_13b();
    System sys = presets::dgxA100(1);
    InferenceOptions opts = table2Options();

    plan::InferenceRun run = plan::runInference(model, sys, opts);
    InferenceReport rep = evaluateInference(model, sys, opts);

    EXPECT_EQ(rep.totalLatency, run.report.totalLatency);
    EXPECT_EQ(rep.prefill.time, run.report.prefill.time);
    EXPECT_EQ(rep.decode.commTime, run.report.decode.commTime);

    double step_sum = 0.0;
    for (const plan::StepEval &ev : run.plan.evals)
        step_sum += ev.total;
    expectNearRel(rep.totalLatency, step_sum, 1e-9);

    // Phase routing: prefill + decode partition the step stream.
    plan::FoldedInference f = plan::foldInference(run.plan, nullptr);
    expectNearRel(f.prefill.time + f.decode.time, step_sum, 1e-9);
    EXPECT_GT(f.prefill.computeBoundGemmTime, 0.0);
    EXPECT_GT(f.decode.memoryBoundGemmTime, 0.0);
    EXPECT_GT(f.decode.commTime, 0.0);
}

TEST(Plan, StepIdentitiesDeterministicAcrossThreads)
{
    TransformerConfig model;
    System sys;
    ParallelConfig par;
    TrainingOptions opts;
    table1Config(&model, &sys, &par, &opts);

    plan::EvaluatedPlan ref = plan::evaluatePlan(
        plan::lowerTraining(model, sys, par, 64, opts), sys);

    // Eight workers re-evaluate the same plan concurrently through the
    // shared tile cache (roofline/gemm.h); every replica must be
    // bit-identical to the serial reference, step by step.
    const TileCacheStats before = tileCacheStats();
    std::vector<plan::EvaluatedPlan> replicas = exec::parallelMap(
        8, 8, [&](long long) {
            return plan::evaluatePlan(
                plan::lowerTraining(model, sys, par, 64, opts), sys);
        });
    EXPECT_GT(tileCacheStats().hits, before.hits);
    for (const plan::EvaluatedPlan &ep : replicas) {
        ASSERT_EQ(ref.plan.steps.size(), ep.plan.steps.size());
        for (size_t i = 0; i < ref.plan.steps.size(); ++i) {
            EXPECT_EQ(ref.plan.steps[i].lane, ep.plan.steps[i].lane);
            EXPECT_EQ(ref.plan.steps[i].name, ep.plan.steps[i].name);
            EXPECT_EQ(ref.evals[i].total, ep.evals[i].total);
            EXPECT_EQ(ref.evals[i].perInstance,
                      ep.evals[i].perInstance);
        }
    }
}

void
expectSameEstimate(const KernelEstimate &want, const KernelEstimate &got)
{
    EXPECT_EQ(want.flops, got.flops);
    EXPECT_EQ(want.bytesPerLevel, got.bytesPerLevel);
    EXPECT_EQ(want.computeTime, got.computeTime);
    EXPECT_EQ(want.memTimePerLevel, got.memTimePerLevel);
    EXPECT_EQ(want.overhead, got.overhead);
    EXPECT_EQ(want.time, got.time);
    EXPECT_EQ(want.boundLevel, got.boundLevel);
}

TEST(Plan, SingleOpPartsMatchEvaluateOpBitForBit)
{
    // A single-op part goes straight through evaluateOp, so its
    // estimate is exactly the per-kernel detail estimate of that op;
    // the per-token detail estimates of a span-bound range step are
    // exactly evaluateOp on the op lowered at that token's context.
    TransformerConfig model = models::llama2_13b();
    System sys = presets::dgxA100(1);
    InferenceOptions opts = table2Options();
    opts.generateLength = 64;

    plan::EvaluateOptions eo;
    eo.detail = true;
    plan::EvaluatedPlan ep = plan::evaluatePlan(
        plan::lowerInference(model, sys, opts), sys, eo);

    size_t checked = 0;
    for (size_t i = 0; i < ep.plan.steps.size(); ++i) {
        const plan::PlanStep &st = ep.plan.steps[i];
        if (st.kind != plan::StepKind::Compute)
            continue;
        for (size_t pi = 0; pi < st.parts.size(); ++pi) {
            if (st.parts[pi].ops.size() != 1)
                continue;
            const Op &op = st.parts[pi].ops[0];
            const KernelEstimate &got = ep.evals[i].partEsts[pi];
            EXPECT_EQ(op.name, got.kernel);
            expectSameEstimate(evaluateOp(ep.dev, op), got);
            ++checked;
        }
        if (!plan::bindsSpan(st))
            continue;
        const std::vector<KernelEstimate> &tok = ep.evals[i].tokenEsts;
        ASSERT_EQ(size_t(st.tokens), tok.size()) << st.name;
        for (long long t = 0; t < st.tokens; ++t) {
            for (const Op &op : decodeLayerOps(
                     model, opts.batch, opts.promptLength + t + 1,
                     opts.tensorParallel, opts.precision,
                     opts.kvPrecision))
                if (op.name == st.name)
                    expectSameEstimate(evaluateOp(ep.dev, op),
                                       tok[size_t(t)]);
            ++checked;
        }
    }
    EXPECT_GT(checked, size_t(3 * opts.generateLength));
}

TEST(Plan, DecodePlanSizeIndependentOfGenerateLength)
{
    // Decode lowers to one range step per op: the plan is the same
    // size for a short and a 32k-token generation.
    TransformerConfig model = models::llama2_13b();
    System sys = presets::dgxA100(1);
    InferenceOptions opts = table2Options();
    opts.generateLength = 64;
    plan::KernelPlan shorter = plan::lowerInference(model, sys, opts);
    opts.generateLength = 32768;
    plan::KernelPlan longer = plan::lowerInference(model, sys, opts);

    ASSERT_EQ(shorter.steps.size(), longer.steps.size());
    for (size_t i = 0; i < shorter.steps.size(); ++i) {
        EXPECT_EQ(shorter.steps[i].lane, longer.steps[i].lane);
        EXPECT_EQ(shorter.steps[i].name, longer.steps[i].name);
        if (longer.steps[i].phase == "decode") {
            EXPECT_EQ(32768, longer.steps[i].tokens);
        }
    }
}

/** Decode PhaseReport summed token by token, without the plan. */
PhaseReport
perTokenDecode(const TransformerConfig &cfg, const System &sys,
               const InferenceOptions &opts)
{
    const double L = double(cfg.numLayers);
    const long long tp = opts.tensorParallel;
    PhaseReport r;
    auto add = [&](const Op &op, double repeats) {
        KernelEstimate est = evaluateOp(sys.device, op);
        const double t = est.time * repeats;
        r.time += t;
        r.overheadTime += est.overhead * repeats;
        r.memoryTime += est.memTimePerLevel[0] * repeats;
        if (op.kind != OpKind::Gemm)
            r.otherKernelTime += t;
        else if (est.computeBound())
            r.computeBoundGemmTime += t;
        else
            r.memoryBoundGemmTime += t;
    };
    for (long long i = 0; i < opts.generateLength; ++i) {
        for (const Op &op :
             decodeLayerOps(cfg, opts.batch, opts.promptLength + i + 1,
                            tp, opts.precision, opts.kvPrecision))
            add(op, L);
        if (tp > 1) {
            double comm =
                2.0 * L *
                systemCollective(sys, CollectiveKind::AllReduce,
                                 double(opts.batch) * cfg.hiddenSize *
                                     precisionBytes(opts.precision),
                                 tp, groupScopeFor(sys, tp))
                    .time;
            r.commTime += comm;
            r.time += comm;
        }
        for (const Op &op : headOps(cfg, opts.batch, tp, opts.precision))
            add(op, 1.0);
    }
    return r;
}

TEST(Plan, DecodeRangeMatchesPerTokenReference)
{
    // The range step's sums equal the per-(token, op) sum up to
    // floating-point reassociation: full attention (MHA), grouped-query
    // attention, and a sliding window the generation runs past.
    TransformerConfig windowed = models::mixtral8x7b();
    windowed.slidingWindow = 256;
    struct Case
    {
        TransformerConfig cfg;
        long long tp;
    };
    const std::vector<Case> cases = {{models::llama2_13b(), 2},
                                     {models::llama2_70b(), 8},
                                     {windowed, 4}};
    System sys = presets::dgxA100(1);
    for (const Case &c : cases) {
        SCOPED_TRACE(c.cfg.name);
        InferenceOptions opts;
        opts.tensorParallel = c.tp;
        opts.batch = 4;
        opts.promptLength = 200;
        opts.generateLength = 150;
        PhaseReport want = perTokenDecode(c.cfg, sys, opts);
        PhaseReport got = evaluateInference(c.cfg, sys, opts).decode;
        auto near = [](double a, double b) {
            EXPECT_NEAR(a, b, 1e-12 * std::abs(a));
        };
        EXPECT_GT(want.commTime, 0.0);
        near(want.time, got.time);
        near(want.commTime, got.commTime);
        near(want.overheadTime, got.overheadTime);
        near(want.memoryTime, got.memoryTime);
        near(want.computeBoundGemmTime, got.computeBoundGemmTime);
        near(want.memoryBoundGemmTime, got.memoryBoundGemmTime);
        near(want.otherKernelTime, got.otherKernelTime);
    }
}

TEST(Plan, DecodeSpansExpandTokenMajor)
{
    // With a live trace the range steps expand token by token: every
    // decode-lane span of token t (ops, all-reduce, head) before any
    // of token t + 1, as a per-(token, op) plan emitted them.
    TransformerConfig model = models::llama2_13b();
    System sys = presets::dgxA100(1);
    InferenceOptions opts = table2Options();
    opts.generateLength = 6;
    TraceSession session;
    opts.trace = &session;
    evaluateInference(model, sys, opts);

    std::vector<std::string> per_token;
    for (const Op &op : decodeLayerOps(model, opts.batch, 2,
                                       opts.tensorParallel,
                                       opts.precision))
        per_token.push_back(op.name);
    per_token.push_back("tp-allreduce");
    for (const Op &op : headOps(model, opts.batch, opts.tensorParallel,
                                opts.precision))
        per_token.push_back(op.name);

    size_t n = 0;
    for (const TraceSpan &s : session.spans()) {
        const std::string &lane = session.lanes()[size_t(s.lane)].name;
        if (lane != "decode" && lane != "decode/comm")
            continue;
        EXPECT_EQ(per_token[n % per_token.size()], s.name) << n;
        EXPECT_EQ(static_cast<long long>(n / per_token.size()), s.step)
            << n;
        ++n;
    }
    EXPECT_EQ(per_token.size() * size_t(opts.generateLength), n);

    // Without a detail evaluation the walker evaluates the per-token
    // estimates itself: the kernel rows come out the same.
    opts.trace = nullptr;
    std::vector<plan::KernelAggregate> stored = plan::kernelAggregates(
        plan::runInference(model, sys, opts, /*detail=*/true).plan);
    std::vector<plan::KernelAggregate> fresh = plan::kernelAggregates(
        plan::runInference(model, sys, opts).plan);
    ASSERT_EQ(stored.size(), fresh.size());
    for (size_t i = 0; i < stored.size(); ++i) {
        EXPECT_EQ(stored[i].key, fresh[i].key);
        EXPECT_EQ(stored[i].count, fresh[i].count);
        EXPECT_EQ(stored[i].time, fresh[i].time);
        EXPECT_EQ(stored[i].bound, fresh[i].bound);
    }
}

TEST(Plan, JsonDumpRoundTrips)
{
    TransformerConfig model;
    System sys;
    ParallelConfig par;
    TrainingOptions opts;
    table1Config(&model, &sys, &par, &opts);
    plan::TrainingRun run =
        plan::runTraining(model, sys, par, 64, opts);

    JsonValue doc = plan::planJson(run.plan);
    EXPECT_EQ("optimus-kernel-plan", doc.at("schema").asString());
    EXPECT_EQ(1, doc.at("version").asInt());
    EXPECT_EQ("training", doc.at("phase").asString());
    ASSERT_FALSE(doc.at("steps").asArray().empty());

    // dump -> parse -> dump must be byte-stable (the number formatter
    // round-trips doubles losslessly)...
    const std::string text = doc.dump(2);
    JsonValue parsed = JsonValue::parse(text);
    EXPECT_EQ(text, parsed.dump(2));

    // ...and every parsed step carries its summary's fields exactly.
    std::vector<plan::StepSummary> steps = plan::summarizePlan(run.plan);
    const std::vector<JsonValue> &rows = parsed.at("steps").asArray();
    ASSERT_EQ(steps.size(), rows.size());
    for (size_t i = 0; i < steps.size(); ++i) {
        const plan::StepSummary &r = steps[i];
        const JsonValue &e = rows[i];
        SCOPED_TRACE(r.lane + "/" + r.name);
        EXPECT_EQ(r.lane, e.at("lane").asString());
        EXPECT_EQ(r.name, e.at("name").asString());
        EXPECT_EQ(r.category, e.at("category").asString());
        EXPECT_EQ(r.kind, e.at("kind").asString());
        EXPECT_EQ(r.count, e.at("count").asInt());
        EXPECT_EQ(r.perInstance, e.at("per_instance_s").asNumber());
        EXPECT_EQ(r.total, e.at("total_s").asNumber());
        EXPECT_EQ(r.flops, e.at("flops").asNumber());
        EXPECT_EQ(r.dramBytes, e.at("dram_bytes").asNumber());
        EXPECT_EQ(r.overhead, e.at("overhead_s").asNumber());
        EXPECT_EQ(r.detail, e.at("detail").asString());
    }

    // The dump's totals tie out against the report.
    expectNearRel(run.report.timePerBatch,
                  doc.at("totals").at("time").asNumber(), 1e-9);

    // The CSV has one row per step plus a header.
    std::string csv = plan::planCsv(run.plan);
    size_t lines = 0;
    for (char c : csv)
        if (c == '\n')
            ++lines;
    EXPECT_EQ(steps.size() + 1, lines);
}

TEST(Plan, CsvRowIsPinned)
{
    // A hand-built one-step plan whose lane and name need RFC-4180
    // quoting: a quote in the lane, a comma in the name.
    plan::EvaluatedPlan ep;
    ep.plan.phase = "training";
    plan::PlanStep st;
    st.kind = plan::StepKind::Collective;
    st.lane = "stage0/\"tp\"";
    st.name = "all-reduce, fp16";
    st.repeatMicrobatch = 2;
    st.repeatLayer = 3;
    st.scope = GroupScope::InterNode;
    ep.plan.steps.push_back(st);
    plan::StepEval ev;
    ev.category = "tp-comm";
    ev.perInstance = 0.1;
    ev.total = 0.6;
    ep.evals.push_back(ev);

    EXPECT_EQ(plan::planCsv(ep),
              "lane,name,category,kind,count,per_instance_s,total_s,"
              "flops,dram_bytes,overhead_s,detail\n"
              "\"stage0/\"\"tp\"\"\",\"all-reduce, fp16\",tp-comm,"
              "collective,6,0.10000000000000001,0.59999999999999998,"
              "0,0,0,inter-node\n");
}

TEST(Plan, GroupScopeBoundaryIsProductOverNode)
{
    System sys = presets::dgxA100(2);  // 16 devices, 8 per node
    EXPECT_EQ(GroupScope::IntraNode, groupScopeFor(sys, 1));
    EXPECT_EQ(GroupScope::IntraNode, groupScopeFor(sys, 8));
    EXPECT_EQ(GroupScope::InterNode, groupScopeFor(sys, 9));
    EXPECT_EQ(GroupScope::InterNode, groupScopeFor(sys, 16));
}

TEST(Plan, InferenceTpAllReduceSpansNodesWhenTpExceedsNode)
{
    // Regression: the per-layer TP all-reduce used to be pinned
    // intra-node even when the TP group spanned nodes. GPT-175B has
    // 96 heads, so tp16 divides evenly across two DGX nodes.
    TransformerConfig model = models::gpt175b();
    System sys = presets::dgxA100(2);
    InferenceOptions opts;
    opts.tensorParallel = 16;
    opts.batch = 1;
    opts.promptLength = 256;
    opts.generateLength = 4;

    plan::KernelPlan kp = plan::lowerInference(model, sys, opts);
    size_t allreduces = 0;
    for (const plan::PlanStep &st : kp.steps)
        if (st.kind == plan::StepKind::Collective &&
            st.name == "tp-allreduce") {
            ++allreduces;
            EXPECT_EQ(GroupScope::InterNode, st.scope);
            EXPECT_EQ(16, st.groupSize);
        }
    EXPECT_GT(allreduces, 0u);

    // The same group at tp8 stays on NVLink and must be faster per
    // byte: compare effective bandwidth of the two scopes directly.
    double volume = 1 << 20;
    CollectiveResult intra = systemCollective(
        sys, CollectiveKind::AllReduce, volume, 8,
        GroupScope::IntraNode);
    CollectiveResult inter = systemCollective(
        sys, CollectiveKind::AllReduce, volume, 16,
        GroupScope::InterNode);
    EXPECT_GT(intra.effectiveBandwidth, inter.effectiveBandwidth);

    // End to end: the report charges the inter-node collective.
    InferenceReport rep = evaluateInference(model, sys, opts);
    EXPECT_GT(rep.prefill.commTime, 0.0);
    EXPECT_GT(rep.decode.commTime, 0.0);
}

TEST(Plan, KernelAggregatesMatchStepStream)
{
    TransformerConfig model = models::gpt7b();
    System sys = presets::dgxA100(1);
    ParallelConfig par;
    par.dataParallel = 2;
    par.tensorParallel = 4;
    par.sequenceParallel = true;
    TrainingOptions opts;
    opts.recompute = Recompute::Selective;

    plan::TrainingRun run = plan::runTraining(model, sys, par, 32,
                                              opts, /*detail=*/true);
    std::vector<plan::KernelAggregate> aggs =
        plan::kernelAggregates(run.plan);
    ASSERT_FALSE(aggs.empty());
    for (const plan::KernelAggregate &a : aggs) {
        EXPECT_GT(a.count, 0);
        EXPECT_GE(a.time, 0.0);
        EXPECT_FALSE(a.bound.empty()) << a.key;
        // Identities are "<lane>/<name>".
        EXPECT_NE(std::string::npos, a.key.find('/')) << a.key;
    }
}

void
expectSameOp(const Op &want, const Op &got)
{
    SCOPED_TRACE(want.name);
    EXPECT_EQ(want.name, got.name);
    EXPECT_EQ(want.kind, got.kind);
    EXPECT_EQ(want.gemm.m, got.gemm.m);
    EXPECT_EQ(want.gemm.n, got.gemm.n);
    EXPECT_EQ(want.gemm.k, got.gemm.k);
    EXPECT_EQ(want.gemm.precision, got.gemm.precision);
    EXPECT_EQ(want.count, got.count);
    EXPECT_EQ(want.launchCount, got.launchCount);
    EXPECT_EQ(want.rows, got.rows);
    EXPECT_EQ(want.cols, got.cols);
    EXPECT_EQ(want.elements, got.elements);
    EXPECT_EQ(want.flopsPerElement, got.flopsPerElement);
    EXPECT_EQ(want.fusedFlops, got.fusedFlops);
    EXPECT_EQ(want.fusedDramBytes, got.fusedDramBytes);
    EXPECT_EQ(want.fusedOnChipBytes, got.fusedOnChipBytes);
    EXPECT_EQ(want.fusedPrecision, got.fusedPrecision);
    EXPECT_EQ(want.streamBytes, got.streamBytes);
    EXPECT_EQ(want.streamFlops, got.streamFlops);
    EXPECT_EQ(want.streamPrecision, got.streamPrecision);
    EXPECT_EQ(want.fused, got.fused);
    EXPECT_EQ(want.spanDim, got.spanDim);
}

TEST(Plan, RecomputeReplaysTheForwardOpList)
{
    // The layer-recompute step replays exactly the layer-fwd op list,
    // scaled by the selective-recompute share of that same list's
    // FLOPs: the dense tp8+SP Table 1 mapping, and an MoE mapping
    // whose experts shard over expert parallelism.
    TransformerConfig gpt;
    System gpt_sys;
    ParallelConfig gpt_par;
    TrainingOptions gpt_opts;
    table1Config(&gpt, &gpt_sys, &gpt_par, &gpt_opts);

    ParallelConfig moe_par;
    moe_par.dataParallel = 8;
    moe_par.tensorParallel = 4;
    moe_par.pipelineParallel = 2;
    moe_par.expertParallel = 8;
    moe_par.sequenceParallel = true;
    TrainingOptions moe_opts;
    moe_opts.recompute = Recompute::Selective;

    const struct
    {
        const char *label;
        TransformerConfig model;
        System sys;
        ParallelConfig par;
        long long batch;
        TrainingOptions opts;
    } cases[] = {
        {"gpt-175b", gpt, gpt_sys, gpt_par, 64, gpt_opts},
        {"mixtral-8x7b", models::mixtral8x7b(), presets::dgxA100(8),
         moe_par, 128, moe_opts},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.label);
        plan::KernelPlan kp =
            plan::lowerTraining(c.model, c.sys, c.par, c.batch, c.opts);
        const plan::PlanStep *fwd = nullptr;
        const plan::PlanStep *rec = nullptr;
        for (const plan::PlanStep &st : kp.steps) {
            if (st.name == "layer-fwd")
                fwd = &st;
            if (st.name == "layer-recompute")
                rec = &st;
        }
        ASSERT_NE(fwd, nullptr);
        ASSERT_NE(rec, nullptr);
        ASSERT_EQ(fwd->parts.size(), 1u);
        ASSERT_EQ(rec->parts.size(), 1u);
        const std::vector<Op> &ops = fwd->parts[0].ops;
        ASSERT_EQ(ops.size(), rec->parts[0].ops.size());
        for (size_t i = 0; i < ops.size(); ++i)
            expectSameOp(ops[i], rec->parts[0].ops[i]);
        EXPECT_GT(rec->parts[0].scale, 0.0);
        EXPECT_EQ(rec->parts[0].scale,
                  recomputeForwardFraction(ops, Recompute::Selective));
    }
}

TEST(Plan, MappingsShareTheirLayerPart)
{
    // Two mappings of one layer shape (tp8, microbatch 1, SP) bound to
    // one layer part: each plan equals its standalone lowering, and
    // its layer steps share the part's lists and estimates instead of
    // holding copies. A mapping of another shape is refused.
    TransformerConfig model;
    System sys;
    ParallelConfig par;
    TrainingOptions opts;
    table1Config(&model, &sys, &par, &opts);
    const plan::LayerPart layers =
        plan::lowerLayers(model, sys, par, 64, opts);

    ParallelConfig deeper = par;
    deeper.pipelineParallel = 4;
    deeper.dataParallel = 2;
    TrainingOptions full = opts;
    full.recompute = Recompute::Full;
    for (const auto &[mapping, o] :
         {std::make_pair(par, opts), std::make_pair(deeper, full)}) {
        plan::EvaluatedPlan bound = plan::evaluatePlan(
            plan::lowerTraining(layers, model, sys, mapping, 64, o), sys);
        plan::EvaluatedPlan alone = plan::evaluatePlan(
            plan::lowerTraining(model, sys, mapping, 64, o), sys);
        ASSERT_EQ(bound.evals.size(), alone.evals.size());
        for (size_t i = 0; i < bound.evals.size(); ++i) {
            EXPECT_EQ(bound.plan.steps[i].name, alone.plan.steps[i].name);
            EXPECT_EQ(bound.evals[i].total, alone.evals[i].total);
        }
        for (const plan::PlanStep &st : bound.plan.steps) {
            if (st.name == "layer-fwd" || st.name == "layer-recompute") {
                EXPECT_EQ(&st.parts[0].ops.list(),
                          &layers.forward.ops.list());
                EXPECT_EQ(st.parts[0].estimate, layers.forward.estimate);
            }
            if (st.name == "layer-bwd") {
                EXPECT_EQ(st.parts[0].estimate, layers.backward.estimate);
            }
        }
    }

    ParallelConfig other = par;
    other.microbatchSize = 2;
    EXPECT_THROW(plan::lowerTraining(layers, model, sys, other, 64, opts),
                 ConfigError);
}

} // namespace
} // namespace optimus
