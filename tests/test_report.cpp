/**
 * @file
 * Tests for the run ledger & diff engine: RunRecord JSON round trips
 * losslessly, a record diffed against itself is empty, a perturbed
 * kernel is attributed to the exact kernel and component, the
 * regression-sentinel exit code honors the tolerance, and structural
 * drift (bound flips, one-sided kernels, fingerprint mismatches) is
 * never excused by tolerance.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "dse/search.h"
#include "hw/presets.h"
#include "inference/engine.h"
#include "plan/plan.h"
#include "planner/planner.h"
#include "report/diff.h"
#include "report/record.h"
#include "report/version.h"
#include "roofline/gemm.h"
#include "trace/trace.h"
#include "training/trainer.h"
#include "util/error.h"
#include "util/json.h"
#include "workload/presets.h"

namespace optimus {
namespace {

report::RunRecord
smallTrainingRecord()
{
    ParallelConfig par;
    par.dataParallel = 2;
    par.tensorParallel = 4;
    par.pipelineParallel = 2;
    par.sequenceParallel = true;
    TrainingOptions opts;
    opts.recompute = Recompute::Selective;
    return report::recordTraining(models::gpt7b(), presets::dgxA100(2),
                                  par, 32, opts, "unit-test");
}

TEST(RunRecord, BuilderFillsIdentityAndContent)
{
    report::RunRecord rec = smallTrainingRecord();
    EXPECT_EQ(rec.schemaVersion, report::kSchemaVersion);
    EXPECT_EQ(rec.toolVersion, report::toolVersion());
    EXPECT_EQ(rec.gitSha, report::gitSha());
    EXPECT_EQ(rec.kind, "training");
    EXPECT_EQ(rec.label, "unit-test");
    EXPECT_EQ(rec.fingerprint, report::fingerprintJson(rec.config));
    EXPECT_EQ(rec.fingerprint.size(), 16u);
    EXPECT_TRUE(rec.hasMetric("time/total"));
    EXPECT_TRUE(rec.hasMetric("mfu"));
    EXPECT_GT(rec.metric("time/total"), 0.0);
    EXPECT_FALSE(rec.kernels.empty());
    for (const report::KernelStat &k : rec.kernels) {
        EXPECT_FALSE(k.key.empty());
        EXPECT_GT(k.count, 0);
        EXPECT_FALSE(k.bound.empty());
    }
}

TEST(RunRecord, JsonRoundTripIsLossless)
{
    report::RunRecord rec = smallTrainingRecord();
    rec.setAttr("note", "quote \" comma , newline \n done");
    rec.validation.push_back({"row/one", 1.25, 1.2500001});

    // Serialize, re-parse the dumped text (the on-disk path), parse
    // back — every field must compare exactly, doubles included.
    JsonValue j = JsonValue::parse(report::toJson(rec).dump(2));
    report::RunRecord back = report::recordFromJson(j);

    EXPECT_EQ(back.schemaVersion, rec.schemaVersion);
    EXPECT_EQ(back.toolVersion, rec.toolVersion);
    EXPECT_EQ(back.gitSha, rec.gitSha);
    EXPECT_EQ(back.kind, rec.kind);
    EXPECT_EQ(back.label, rec.label);
    EXPECT_EQ(back.fingerprint, rec.fingerprint);
    EXPECT_EQ(back.threads, rec.threads);
    EXPECT_EQ(back.config.dump(), rec.config.dump());

    ASSERT_EQ(back.metrics.size(), rec.metrics.size());
    for (size_t i = 0; i < rec.metrics.size(); ++i) {
        EXPECT_EQ(back.metrics[i].first, rec.metrics[i].first);
        EXPECT_EQ(back.metrics[i].second, rec.metrics[i].second)
            << rec.metrics[i].first;
    }
    ASSERT_EQ(back.kernels.size(), rec.kernels.size());
    for (size_t i = 0; i < rec.kernels.size(); ++i) {
        EXPECT_EQ(back.kernels[i].key, rec.kernels[i].key);
        EXPECT_EQ(back.kernels[i].count, rec.kernels[i].count);
        EXPECT_EQ(back.kernels[i].time, rec.kernels[i].time);
        EXPECT_EQ(back.kernels[i].flops, rec.kernels[i].flops);
        EXPECT_EQ(back.kernels[i].dramBytes, rec.kernels[i].dramBytes);
        EXPECT_EQ(back.kernels[i].bound, rec.kernels[i].bound);
    }
    EXPECT_EQ(back.counters, rec.counters);
    ASSERT_EQ(back.validation.size(), rec.validation.size());
    EXPECT_EQ(back.validation.back().name, "row/one");
    EXPECT_EQ(back.validation.back().predicted, 1.2500001);
    EXPECT_EQ(back.attrs, rec.attrs);

    // The loss-free contract is what makes self-diff exact.
    report::RunDiff diff = report::diffRuns(rec, back);
    EXPECT_TRUE(diff.empty());
}

TEST(RunRecord, InfiniteMetricReadsBack)
{
    // A record with one non-finite metric is written as a file that
    // recordFromJson and diffRuns can read back: the ledger's on-disk
    // path, then a diff against the record it came from.
    const double inf = std::numeric_limits<double>::infinity();
    report::RunRecord rec = smallTrainingRecord();
    rec.setMetric("time/stalled", inf);
    report::RunRecord back;
    ASSERT_NO_THROW(back = report::recordFromJson(
                        JsonValue::parse(report::toJson(rec).dump(2))));
    EXPECT_EQ(back.metric("time/stalled"), inf);
    report::RunDiff diff;
    ASSERT_NO_THROW(diff = report::diffRuns(rec, back));
    EXPECT_NO_THROW(report::diffText(diff, rec, back, {}));
    EXPECT_NO_THROW(report::diffRuns(smallTrainingRecord(), back));
}

TEST(RunDiff, SelfDiffIsEmptyAndClean)
{
    report::RunRecord rec = smallTrainingRecord();
    report::RunDiff diff = report::diffRuns(rec, rec);
    EXPECT_TRUE(diff.empty());
    EXPECT_FALSE(diff.drifted());
    EXPECT_EQ(report::checkExitCode(diff), 0);
}

TEST(RunDiff, PerturbedKernelIsAttributedExactly)
{
    report::RunRecord a = smallTrainingRecord();
    report::RunRecord b = a;
    ASSERT_GT(b.kernels.size(), 2u);
    const std::string victim = b.kernels[2].key;
    b.kernels[2].time *= 1.01;  // +1% with identical work recorded

    report::RunDiff diff = report::diffRuns(a, b);  // tol 0.5%
    ASSERT_EQ(diff.kernels.size(), 1u);
    EXPECT_EQ(diff.kernels[0].key, victim);
    EXPECT_NEAR(diff.kernels[0].timeDeltaPct(), 1.0, 1e-6);
    EXPECT_EQ(diff.kernels[0].component(), "throughput");
    EXPECT_TRUE(diff.kernels[0].beyondTolerance);
    EXPECT_TRUE(diff.drifted());
    EXPECT_EQ(report::checkExitCode(diff), 1);
}

TEST(RunDiff, ExitCodeHonorsTolerance)
{
    report::RunRecord a = smallTrainingRecord();
    report::RunRecord b = a;
    b.kernels[0].time *= 1.01;

    report::DiffOptions loose;
    loose.tolPct = 5.0;
    report::RunDiff ok = report::diffRuns(a, b, loose);
    EXPECT_FALSE(ok.drifted());
    EXPECT_EQ(report::checkExitCode(ok), 0);
    // The change is still *reported*, just not gated.
    ASSERT_EQ(ok.kernels.size(), 1u);
    EXPECT_FALSE(ok.kernels[0].beyondTolerance);

    report::DiffOptions tight;
    tight.tolPct = 0.1;
    EXPECT_EQ(report::checkExitCode(report::diffRuns(a, b, tight)), 1);
}

TEST(RunDiff, ComponentAttributionTracksWork)
{
    report::RunRecord a = smallTrainingRecord();

    report::RunRecord flops = a;
    flops.kernels[0].flops *= 2.0;
    flops.kernels[0].time *= 2.0;
    report::RunDiff d1 = report::diffRuns(a, flops);
    ASSERT_FALSE(d1.kernels.empty());
    EXPECT_EQ(d1.kernels[0].component(), "flops");

    report::RunRecord bytes = a;
    bytes.kernels[0].dramBytes *= 1.5;
    report::RunDiff d2 = report::diffRuns(a, bytes);
    ASSERT_FALSE(d2.kernels.empty());
    EXPECT_EQ(d2.kernels[0].component(), "bytes");
}

TEST(RunDiff, BoundFlipAlwaysDrifts)
{
    report::RunRecord a = smallTrainingRecord();
    report::RunRecord b = a;
    b.kernels[0].bound =
        (a.kernels[0].bound == "DRAM") ? "compute" : "DRAM";

    report::DiffOptions loose;
    loose.tolPct = 1e9;  // no numeric tolerance can excuse a flip
    report::RunDiff diff = report::diffRuns(a, b, loose);
    ASSERT_EQ(diff.kernels.size(), 1u);
    EXPECT_TRUE(diff.kernels[0].boundFlip);
    EXPECT_EQ(diff.kernels[0].component(), "bound");
    EXPECT_TRUE(diff.drifted());
}

TEST(RunDiff, OneSidedKernelAlwaysDrifts)
{
    report::RunRecord a = smallTrainingRecord();
    report::RunRecord b = a;
    report::KernelStat dropped = b.kernels.back();
    b.kernels.pop_back();

    report::DiffOptions loose;
    loose.tolPct = 1e9;
    report::RunDiff diff = report::diffRuns(a, b, loose);
    ASSERT_EQ(diff.kernels.size(), 1u);
    EXPECT_EQ(diff.kernels[0].key, dropped.key);
    EXPECT_TRUE(diff.kernels[0].onlyA);
    EXPECT_TRUE(diff.drifted());
}

TEST(RunDiff, FingerprintMismatchMakesRecordsIncomparable)
{
    report::RunRecord a = smallTrainingRecord();
    report::RunRecord b = a;
    b.fingerprint = "0000000000000000";

    report::RunDiff diff = report::diffRuns(a, b);
    EXPECT_FALSE(diff.comparable);
    EXPECT_TRUE(diff.drifted());
    EXPECT_EQ(report::checkExitCode(diff), 1);
}

TEST(RunDiff, ValidationPredictionGatesReferenceDoesNot)
{
    report::RunRecord a = smallTrainingRecord();
    a.validation.push_back({"table/row", 10.0, 9.8});
    report::RunRecord b = a;
    b.validation[0].predicted = 10.3;  // ~5% move in the prediction

    report::RunDiff diff = report::diffRuns(a, b);
    ASSERT_EQ(diff.validation.size(), 1u);
    EXPECT_EQ(diff.validation[0].key, "table/row");
    EXPECT_TRUE(diff.validation[0].beyondTolerance);
    EXPECT_TRUE(diff.drifted());
}

TEST(RunDiff, CountersNeverGate)
{
    report::RunRecord a = smallTrainingRecord();
    report::RunRecord b = a;
    b.counters["tile-cache/hits"] += 1000.0;
    b.counters["exec/threads"] = 8.0;

    report::RunDiff diff = report::diffRuns(a, b);
    EXPECT_FALSE(diff.counters.empty());
    EXPECT_FALSE(diff.empty());
    EXPECT_FALSE(diff.drifted()) << "counter churn must not gate CI";
    EXPECT_EQ(report::checkExitCode(diff), 0);
}

TEST(RunRecord, FingerprintIsStableAndSensitive)
{
    JsonValue cfg = JsonValue::object();
    cfg.set("model", JsonValue::string("gpt-7b"));
    cfg.set("batch", JsonValue::number(32));
    std::string fp = report::fingerprintJson(cfg);
    EXPECT_EQ(fp, report::fingerprintJson(cfg));

    cfg.set("batch", JsonValue::number(64));
    EXPECT_NE(fp, report::fingerprintJson(cfg));
}

TEST(RunRecord, RejectsNewerSchema)
{
    report::RunRecord rec = smallTrainingRecord();
    JsonValue j = report::toJson(rec);
    j.set("schema_version",
          JsonValue::number(double(report::kSchemaVersion + 1)));
    EXPECT_THROW(report::recordFromJson(j), ConfigError);
}

TEST(ReportVersion, VersionLineCarriesIdentity)
{
    std::string line = report::versionLine();
    EXPECT_NE(line.find(report::toolVersion()), std::string::npos);
    EXPECT_NE(line.find("schema 1"), std::string::npos);
    EXPECT_NE(line.find(report::gitSha()), std::string::npos);
}

TEST(RunDiff, TextReportNamesKernelAndDecomposition)
{
    report::RunRecord a = smallTrainingRecord();
    report::RunRecord b = a;
    b.kernels[1].time *= 1.02;
    b.setMetric("time/total", a.metric("time/total") * 1.02);

    report::DiffOptions opts;
    report::RunDiff diff = report::diffRuns(a, b, opts);
    std::string text = report::diffText(diff, a, b, opts);
    EXPECT_NE(text.find(b.kernels[1].key), std::string::npos);
    EXPECT_NE(text.find("time/total"), std::string::npos);
    EXPECT_NE(text.find("DRIFT"), std::string::npos);
}

/**
 * The oracle: fold the kernel-detail spans recorded in @p session into
 * per-"<lane>/<name>" rows, sorted by key, each labeled by its
 * time-dominant bound (ties to the lexicographically first).
 */
std::vector<plan::KernelAggregate>
foldSessionSpans(const TraceSession &session)
{
    std::map<std::string, plan::KernelAggregate> rows;
    std::map<std::string, std::map<std::string, double>> bound_time;
    for (const TraceSpan &s : session.spans()) {
        if (!s.isKernel())
            continue;
        const std::string key =
            session.lanes().at(size_t(s.lane)).name + "/" + s.name;
        plan::KernelAggregate &a = rows[key];
        if (a.count == 0) {
            a.key = key;
            a.category = s.category;
        }
        ++a.count;
        a.time += s.duration;
        a.flops += s.flops;
        a.dramBytes += s.dramBytes;
        a.overhead += s.overhead;
        bound_time[key][s.bound] += s.duration;
    }
    std::vector<plan::KernelAggregate> out;
    for (auto &kv : rows) {
        double best = -1.0;
        for (const auto &bt : bound_time[kv.first])
            if (bt.second > best) {
                best = bt.second;
                kv.second.bound = bt.first;
            }
        out.push_back(kv.second);
    }
    return out;
}

/** The rows of @p session's spans equal the detail plan's, exactly. */
void
expectSameRows(const TraceSession &session,
               const plan::EvaluatedPlan &ep)
{
    std::vector<plan::KernelAggregate> want = foldSessionSpans(session);
    std::vector<plan::KernelAggregate> rows = plan::kernelAggregates(ep);
    ASSERT_FALSE(want.empty());
    ASSERT_EQ(want.size(), rows.size());
    for (size_t i = 0; i < want.size(); ++i) {
        const plan::KernelAggregate &got = rows[i];
        SCOPED_TRACE(want[i].key);
        EXPECT_EQ(want[i].key, got.key);
        EXPECT_EQ(want[i].category, got.category);
        EXPECT_EQ(want[i].count, got.count);
        EXPECT_EQ(want[i].time, got.time);
        EXPECT_EQ(want[i].flops, got.flops);
        EXPECT_EQ(want[i].dramBytes, got.dramBytes);
        EXPECT_EQ(want[i].overhead, got.overhead);
        EXPECT_EQ(want[i].bound, got.bound);
    }
}

TEST(Report, SessionFoldEqualsPlanFold)
{
    ParallelConfig par;
    par.dataParallel = 2;
    par.tensorParallel = 4;
    par.pipelineParallel = 2;
    par.sequenceParallel = true;
    TrainingOptions topts;
    topts.recompute = Recompute::Selective;
    TraceSession train;
    topts.trace = &train;
    evaluateTraining(models::gpt7b(), presets::dgxA100(2), par, 32,
                     topts);
    topts.trace = nullptr;
    expectSameRows(train, plan::runTraining(models::gpt7b(),
                                            presets::dgxA100(2), par,
                                            32, topts, true)
                              .plan);

    // A long generation, so decode kernels change bound class as the
    // context grows and the time-dominant label is exercised.
    InferenceOptions iopts;
    iopts.tensorParallel = 2;
    iopts.batch = 4;
    iopts.promptLength = 1024;
    iopts.generateLength = 512;
    TraceSession infer;
    iopts.trace = &infer;
    evaluateInference(models::llama2_13b(), presets::dgxA100(1), iopts);
    iopts.trace = nullptr;
    expectSameRows(infer, plan::runInference(models::llama2_13b(),
                                             presets::dgxA100(1), iopts,
                                             true)
                              .plan);
}

bool
sortedByKey(const report::RunRecord &rec)
{
    return std::is_sorted(rec.kernels.begin(), rec.kernels.end(),
                          [](const report::KernelStat &a,
                             const report::KernelStat &b) {
                              return a.key < b.key;
                          });
}

TEST(Report, PlannerAndDseRecords)
{
    // The planner and the DSE trace counters only, so their records
    // carry the session counters and no kernel rows.
    TrainingPlannerOptions popts;
    popts.keep = 3;
    report::RunRecord planner = report::recordPlanner(
        models::gpt7b(), presets::dgxA100(2), 64, popts, "planner");
    EXPECT_EQ("planner", planner.kind);
    EXPECT_EQ(3.0, planner.metric("plans/found"));
    EXPECT_GT(planner.counters.at("planner/plans-evaluated"), 3.0);
    EXPECT_TRUE(sortedByKey(planner));
    EXPECT_TRUE(planner.kernels.empty());

    TechConfig tech;
    tech.node = logicNode("N5");
    tech.dram = dram::hbm3_26();
    DseOptions dopts;
    dopts.gridSteps = 2;
    dopts.refineRounds = 2;
    report::RunRecord dse = report::recordDse(
        tech,
        [](const Device &dev) {
            return estimateGemm(dev, {4096, 4096, 4096, Precision::FP16})
                .time;
        },
        dopts, JsonValue::object(), "dse");
    EXPECT_EQ("dse", dse.kind);
    EXPECT_EQ(dse.metric("evaluations"),
              dse.counters.at("dse/evaluations"));
    EXPECT_TRUE(sortedByKey(dse));
    EXPECT_TRUE(dse.kernels.empty());
}

} // namespace
} // namespace optimus
