/**
 * @file
 * Tests for the trace & metrics layer: the Chrome export is
 * well-formed, per-category span sums reproduce the aggregate
 * reports (the layer's key invariant), counters reset between
 * sessions, and the null sink records nothing.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <string>

#include "dse/search.h"
#include "hw/presets.h"
#include "inference/engine.h"
#include "planner/planner.h"
#include "roofline/report.h"
#include "trace/export.h"
#include "trace/trace.h"
#include "training/trainer.h"
#include "util/json.h"
#include "workload/graph.h"
#include "workload/presets.h"

namespace optimus {
namespace {

void
expectNearRel(double expected, double actual, double rel)
{
    EXPECT_NEAR(expected, actual,
                rel * std::max(1.0, std::abs(expected)));
}

/** A "forward" span of @p duration seconds, placed at @p start. */
TraceSpan
plainSpan(const std::string &name, double duration, double start = 0.0)
{
    TraceSpan s;
    s.name = name;
    s.category = "forward";
    s.duration = duration;
    s.start = start;
    return s;
}

TraceSession
tracedTraining(TrainingReport *out = nullptr)
{
    TraceSession session;
    ParallelConfig par;
    par.dataParallel = 2;
    par.tensorParallel = 4;
    par.pipelineParallel = 2;
    par.sequenceParallel = true;
    TrainingOptions opts;
    opts.recompute = Recompute::Selective;
    opts.trace = &session;
    TrainingReport rep = evaluateTraining(
        models::gpt7b(), presets::dgxA100(2), par, 32, opts);
    if (out != nullptr)
        *out = rep;
    return session;
}

TraceSession
tracedInference(InferenceReport *out = nullptr)
{
    TraceSession session;
    InferenceOptions opts;
    opts.tensorParallel = 2;
    opts.batch = 2;
    opts.promptLength = 256;
    opts.generateLength = 8;
    opts.trace = &session;
    InferenceReport rep = evaluateInference(
        models::llama2_13b(), presets::dgxA100(1), opts);
    if (out != nullptr)
        *out = rep;
    return session;
}

TEST(Trace, NullSinkRecordsNothing)
{
    TraceSession off(false);
    int lane = off.lane("a");
    off.emit(lane, plainSpan("x", 1.0));
    off.counterAdd("c");
    off.counterSet("g", 3.0);
    EXPECT_TRUE(off.spans().empty());
    EXPECT_TRUE(off.lanes().empty());
    EXPECT_TRUE(off.counterSamples().empty());
    EXPECT_EQ(off.counter("c"), 0.0);

    // Evaluators accept both a disabled session and no session at
    // all; neither records anything and both produce the same report.
    ParallelConfig par;
    par.tensorParallel = 4;
    par.pipelineParallel = 2;
    par.dataParallel = 2;
    TrainingOptions with_off;
    with_off.trace = &off;
    TrainingReport a = evaluateTraining(
        models::gpt7b(), presets::dgxA100(2), par, 32, with_off);
    TrainingReport b = evaluateTraining(
        models::gpt7b(), presets::dgxA100(2), par, 32, {});
    EXPECT_TRUE(off.spans().empty());
    EXPECT_DOUBLE_EQ(a.timePerBatch, b.timePerBatch);
}

TEST(Trace, TrainingCategorySumsMatchBreakdown)
{
    TrainingReport rep;
    TraceSession session = tracedTraining(&rep);
    std::map<std::string, double> sums = session.categoryTotals();

    const TrainingBreakdown &t = rep.time;
    expectNearRel(t.forward, sums["forward"], 1e-9);
    expectNearRel(t.backward, sums["backward"], 1e-9);
    expectNearRel(t.recompute, sums["recompute"], 1e-9);
    expectNearRel(t.embedding, sums["embedding"], 1e-9);
    expectNearRel(t.tpComm, sums["tp-comm"], 1e-9);
    expectNearRel(t.cpComm, sums["cp-comm"], 1e-9);
    expectNearRel(t.epComm, sums["ep-comm"], 1e-9);
    expectNearRel(t.ppComm, sums["pp-comm"], 1e-9);
    expectNearRel(t.dpComm, sums["dp-comm"], 1e-9);
    expectNearRel(t.bubble, sums["bubble"], 1e-9);
    expectNearRel(t.optimizer, sums["optimizer"], 1e-9);

    // Kernel-detail spans are an inner decomposition, excluded from
    // the breakdown identity; everything else sums to the total.
    double total = 0.0;
    for (const auto &kv : sums)
        if (kv.first != "kernel")
            total += kv.second;
    expectNearRel(rep.timePerBatch, total, 1e-9);

    EXPECT_EQ(session.counter("train/microbatches"),
              double(rep.microbatches));
    EXPECT_DOUBLE_EQ(session.counter("train/time-per-batch-s"),
                     rep.timePerBatch);
}

TEST(Trace, InferenceCategorySumsMatchPhases)
{
    InferenceReport rep;
    TraceSession session = tracedInference(&rep);
    std::map<std::string, double> sums = session.categoryTotals();

    expectNearRel(rep.prefill.computeBoundGemmTime,
                  sums["prefill-gemm-compute"], 1e-9);
    expectNearRel(rep.prefill.memoryBoundGemmTime,
                  sums["prefill-gemm-memory"], 1e-9);
    expectNearRel(rep.prefill.otherKernelTime, sums["prefill-other"],
                  1e-9);
    expectNearRel(rep.prefill.commTime, sums["prefill-comm"], 1e-9);
    expectNearRel(rep.decode.computeBoundGemmTime,
                  sums["decode-gemm-compute"], 1e-9);
    expectNearRel(rep.decode.memoryBoundGemmTime,
                  sums["decode-gemm-memory"], 1e-9);
    expectNearRel(rep.decode.otherKernelTime, sums["decode-other"],
                  1e-9);
    expectNearRel(rep.decode.commTime, sums["decode-comm"], 1e-9);

    double prefill = sums["prefill-gemm-compute"] +
                     sums["prefill-gemm-memory"] +
                     sums["prefill-other"] + sums["prefill-comm"];
    double decode = sums["decode-gemm-compute"] +
                    sums["decode-gemm-memory"] + sums["decode-other"] +
                    sums["decode-comm"];
    expectNearRel(rep.prefill.time, prefill, 1e-9);
    expectNearRel(rep.decode.time, decode, 1e-9);
    expectNearRel(rep.totalLatency, prefill + decode, 1e-9);

    EXPECT_EQ(session.counter("infer/decode-tokens"), 8.0);
}

TEST(Trace, ChromeJsonParsesAndIsMonotonic)
{
    TraceSession session = tracedTraining();
    JsonValue root = JsonValue::parse(chromeTraceJson(session).dump());
    ASSERT_TRUE(root.isObject());
    ASSERT_TRUE(root.has("traceEvents"));
    const JsonValue &events = root.at("traceEvents");
    ASSERT_GT(events.size(), 0u);

    // Per-lane span streams must be monotonic: every complete event
    // has a non-negative start and duration, and consecutive events
    // on one tid never overlap (virtual lanes are sequential).
    std::map<long long, double> lane_end;
    size_t complete = 0;
    for (const JsonValue &e : events.asArray()) {
        std::string ph = e.at("ph").asString();
        ASSERT_TRUE(ph == "X" || ph == "M" || ph == "C");
        if (ph != "X")
            continue;
        ++complete;
        double ts = e.at("ts").asNumber();
        double dur = e.at("dur").asNumber();
        long long tid = e.getInt("tid", 0);
        EXPECT_GE(ts, 0.0);
        EXPECT_GE(dur, 0.0);
        EXPECT_GE(ts, lane_end[tid] - 1e-6) << "overlap on tid " << tid;
        lane_end[tid] = ts + dur;
    }
    EXPECT_EQ(complete, session.spans().size());
}

TEST(Trace, CountersResetBetweenSessions)
{
    TraceSession session;
    session.counterAdd("dse/evaluations");
    session.counterAdd("dse/evaluations");
    session.counterSet("dse/best-objective", 1.5);
    session.emit(session.lane("l"), plainSpan("x", 1.0));
    EXPECT_EQ(session.counter("dse/evaluations"), 2.0);
    EXPECT_EQ(session.counterSamples().size(), 3u);

    session.reset();
    EXPECT_EQ(session.counter("dse/evaluations"), 0.0);
    EXPECT_TRUE(session.counters().empty());
    EXPECT_TRUE(session.counterSamples().empty());
    EXPECT_TRUE(session.spans().empty());
    EXPECT_EQ(session.makespan(), 0.0);

    // Lanes survive a reset but their cursors rewind to zero.
    session.emit(session.lane("l"), plainSpan("y", 2.0));
    EXPECT_DOUBLE_EQ(session.spans().front().start, 0.0);
}

TEST(Trace, EmitKeepsStartsPastTheCursor)
{
    TraceSession session;
    int lane = session.lane("l");
    // A start past the cursor is kept: the gap [1, 3) stays idle.
    EXPECT_EQ(session.emit(lane, plainSpan("a", 1.0)), 0.0);
    EXPECT_EQ(session.emit(lane, plainSpan("b", 2.0, 3.0)), 3.0);
    // A start before the cursor (5) moves to the cursor.
    EXPECT_EQ(session.emit(lane, plainSpan("c", 1.0, 4.0)), 5.0);
    EXPECT_EQ(session.emit(lane, plainSpan("d", 0.5)), 6.0);
    EXPECT_EQ(session.lanes()[0].cursor, 6.5);
    EXPECT_EQ(session.makespan(), 6.5);

    // Each lane keeps its own cursor.
    int other = session.lane("m");
    EXPECT_EQ(session.emit(other, plainSpan("e", 1.0, 2.0)), 2.0);
    EXPECT_EQ(session.lanes()[1].cursor, 3.0);
}

TEST(Trace, DseCountersAndRoundsSurface)
{
    TechConfig tech;
    tech.node = logicNode("N5");
    tech.dram = dram::hbm3();

    TraceSession session;
    DseOptions opts;
    opts.gridSteps = 3;
    opts.refineRounds = 4;
    opts.trace = &session;
    int rounds_seen = 0;
    int last_evals = 0;
    opts.onRound = [&](const DseRound &r) {
        if (rounds_seen == 0) {
            EXPECT_EQ(r.round, -1);  // grid phase reports first
        }
        ++rounds_seen;
        EXPECT_GE(r.evaluations, last_evals);
        last_evals = r.evaluations;
        EXPECT_GT(r.bestObjective, 0.0);
    };

    DseResult r = optimizeAllocation(
        tech,
        [](const Device &dev) {
            return 1e15 / dev.matrixFlops(Precision::FP16);
        },
        opts);

    EXPECT_GE(rounds_seen, 2);
    EXPECT_EQ(session.counter("dse/evaluations"),
              double(r.evaluations));
    EXPECT_DOUBLE_EQ(session.counter("dse/best-objective"),
                     r.objective);
}

TEST(Trace, PlannerCountersSurface)
{
    TraceSession session;
    TrainingPlannerOptions opts;
    opts.recomputeChoices = {Recompute::Selective};
    opts.trace = &session;
    planTraining(models::gpt7b(), presets::dgxA100(1), 32, opts);

    double enumerated = session.counter("planner/mappings-enumerated");
    double illegal = session.counter("planner/pruned-illegal");
    double memory = session.counter("planner/pruned-memory");
    double evaluated = session.counter("planner/plans-evaluated");
    EXPECT_GT(enumerated, 0.0);
    EXPECT_GT(evaluated, 0.0);
    EXPECT_LE(illegal, enumerated);
    EXPECT_LE(evaluated + memory, enumerated + memory + evaluated);

    TraceSession serving_session;
    ServingPlannerOptions sopts;
    sopts.maxBatch = 8;
    sopts.trace = &serving_session;
    planServing(models::llama2_13b(), presets::dgxA100(1), sopts);
    EXPECT_GT(serving_session.counter("planner/serving-points"), 0.0);
}

TEST(Trace, BoundNamesAreUnified)
{
    Device dev = presets::a100_80gb();
    std::set<std::string> canonical = {"compute"};
    for (const MemoryLevel &lvl : dev.mem)
        canonical.insert(lvl.name);

    EXPECT_EQ(boundLevelName(dev, -1), "compute");
    EXPECT_EQ(boundLevelName(dev, 0), dev.mem[0].name);

    TransformerConfig model = models::llama2_13b();
    InferenceOptions opts;
    opts.promptLength = 256;
    for (const GemmBoundRow &row :
         prefillGemmTable(dev, model, opts)) {
        EXPECT_TRUE(canonical.count(row.boundType))
            << row.name << ": " << row.boundType;
    }

    LayerGraphParams gp;
    gp.batch = 1;
    gp.seq = 256;
    for (const RooflinePoint &pt :
         rooflinePoints(dev, layerForwardOps(model, gp))) {
        EXPECT_TRUE(canonical.count(pt.bound))
            << pt.name << ": " << pt.bound;
    }

    // Kernel spans carry the same canonical names.
    TraceSession session = tracedTraining();
    for (const TraceSpan &s : session.spans()) {
        if (s.isKernel()) {
            EXPECT_TRUE(canonical.count(s.bound))
                << s.name << ": " << s.bound;
        }
    }
}

TEST(Trace, ExportersProduceOutput)
{
    TraceSession session = tracedTraining();
    std::string csv = kernelCsv(session);
    EXPECT_NE(csv.find("lane,name,category"), std::string::npos);
    EXPECT_GT(csv.size(), 200u);

    std::string text = summaryText(session);
    EXPECT_NE(text.find("category"), std::string::npos);
    EXPECT_NE(text.find("forward"), std::string::npos);
    EXPECT_NE(text.find("counter"), std::string::npos);
}

TEST(Trace, KernelCsvEscapesRfc4180)
{
    TraceSession session;
    int lane = session.lane("kernels/fwd");

    TraceSpan comma;
    comma.name = "gemm, fused";
    comma.category = "kernel";
    comma.duration = 1e-3;
    comma.bound = "compute";
    session.emit(lane, comma);

    TraceSpan quoted;
    quoted.name = "attn \"flash\" path";
    quoted.category = "kernel";
    quoted.duration = 2e-3;
    quoted.bound = "DRAM";
    session.emit(lane, quoted);

    TraceSpan newline;
    newline.name = "multi\nline";
    newline.category = "kernel";
    newline.duration = 3e-3;
    newline.bound = "L2";
    session.emit(lane, newline);

    std::string csv = kernelCsv(session);
    // A cell containing a comma is wrapped in quotes...
    EXPECT_NE(csv.find("\"gemm, fused\""), std::string::npos);
    // ...embedded quotes are doubled per RFC 4180...
    EXPECT_NE(csv.find("\"attn \"\"flash\"\" path\""),
              std::string::npos);
    // ...and embedded newlines are quoted rather than row-splitting.
    EXPECT_NE(csv.find("\"multi\nline\""), std::string::npos);

    // Unquoted cells stay unquoted: the header has no escaping.
    EXPECT_NE(csv.find("lane,name,category"), std::string::npos);
}

/**
 * A fixed session covering every exporter branch: two lanes, a plain
 * span, a kernel span (coordinates, FLOPs, bytes, overhead, bound)
 * whose name needs escaping in both JSON and CSV, and one counter
 * sample.
 */
TraceSession
goldenSession()
{
    TraceSession session;
    int fwd = session.lane("stage0/fwd");
    session.lane("stage0/bwd");

    TraceSpan plain;
    plain.name = "layer-fwd";
    plain.category = "forward";
    plain.duration = 1.2345678e-3;
    plain.microbatch = 0;
    plain.layer = 3;
    session.emit(fwd, plain);

    TraceSpan kernel;
    kernel.name = "attn \"qk^T\", fp16";
    kernel.category = "kernel";
    kernel.duration = 2.5e-4 / 3;
    kernel.microbatch = 0;
    kernel.layer = 3;
    kernel.step = 12;
    kernel.flops = 3.4359738368e12;
    kernel.dramBytes = 1.2345678e9 / 7;
    kernel.overhead = 4.5e-6;
    kernel.bound = "DRAM";
    session.emit(fwd, kernel);

    session.counterSet("dse/best_objective", 0.1 + 0.2);
    return session;
}

TEST(Trace, ExportTextIsPinned)
{
    TraceSession session = goldenSession();
    EXPECT_EQ(
        chromeTraceJson(session).dump(),
        R"({"traceEvents":[)"
        R"({"ph":"M","name":"process_name","pid":0,)"
        R"("args":{"name":"optimus model timeline"}},)"
        R"({"ph":"M","name":"process_name","pid":1,)"
        R"("args":{"name":"optimus counters"}},)"
        R"({"ph":"M","name":"thread_name","pid":0,"tid":0,)"
        R"("args":{"name":"stage0/fwd"}},)"
        R"({"ph":"M","name":"thread_name","pid":0,"tid":1,)"
        R"("args":{"name":"stage0/bwd"}},)"
        R"({"ph":"X","name":"layer-fwd","cat":"forward","pid":0,"tid":0,)"
        R"("ts":0,"dur":1234.5678,"args":{"microbatch":0,"layer":3}},)"
        R"({"ph":"X","name":"attn \"qk^T\", fp16","cat":"kernel",)"
        R"("pid":0,"tid":0,"ts":1234.5678,"dur":83.33333333333333,)"
        R"("args":{"microbatch":0,"layer":3,"step":12,)"
        R"("flops":3435973836800,"dram_bytes":176366828.57142857,)"
        R"("launch_overhead_s":4.5e-06,"bound":"DRAM"}},)"
        R"({"ph":"C","name":"dse/best_objective","pid":1,"ts":0,)"
        R"("args":{"value":0.30000000000000004}}],)"
        R"("displayTimeUnit":"ms"})");
    EXPECT_EQ(kernelCsv(session),
              "lane,name,category,start_us,duration_us,microbatch,"
              "layer,step,flops,dram_bytes,launch_overhead_us,bound\n"
              "stage0/fwd,\"attn \"\"qk^T\"\", fp16\",kernel,1234.5678,"
              "83.3333,0,3,12,3435973836800,176366829,4.500,DRAM\n");
}

TEST(Trace, ChromeJsonNamesProcessesAndThreads)
{
    TraceSession session = tracedTraining();
    JsonValue doc = chromeTraceJson(session);
    const std::vector<JsonValue> &events =
        doc.at("traceEvents").asArray();

    bool timeline_named = false;
    bool counters_named = false;
    int thread_names = 0;
    for (const JsonValue &e : events) {
        if (e.getString("ph", "") != "M")
            continue;
        if (e.getString("name", "") == "process_name") {
            const std::string label =
                e.at("args").getString("name", "");
            if (e.getInt("pid", -1) == 0)
                timeline_named = label == "optimus model timeline";
            if (e.getInt("pid", -1) == 1)
                counters_named = label == "optimus counters";
        }
        if (e.getString("name", "") == "thread_name")
            ++thread_names;
    }
    EXPECT_TRUE(timeline_named);
    EXPECT_TRUE(counters_named);
    EXPECT_EQ(thread_names,
              static_cast<int>(session.lanes().size()));
}

} // namespace
} // namespace optimus
