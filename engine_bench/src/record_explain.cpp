/**
 * @file
 * record_explain: the `optimus_cli record / trace / kernels / diff`
 * path done in process on short training and short-generation
 * inference configs. Each call does a config JSON round trip, lint,
 * recordTraining / recordInference (plus the ledger JSON round trip),
 * an evaluation with a live TraceSession, the Chrome trace, kernel CSV
 * and plan JSON exports, a re-record, and diffRuns against it. This is
 * the workload that measures the config, lint, trace and report
 * layers.
 *
 * One call in eight is a deliberately illegal config (like
 * examples/configs/lint_bad_tp7.json). Lint must reject it with the
 * expected rule ID, which counts as success.
 */

#include "replay.h"
#include "workloads.h"

namespace bench {

using namespace optimus;

namespace {

constexpr int kTraining = 24;
constexpr int kInference = 18;
constexpr int kIllegal = 6;

/** A known-good training mapping; dp fills the remaining devices. */
struct TrainShape
{
    const char *model;
    int nodes;
    long long tp;
    long long pp;
    long long maxMicro;  ///< largest microbatch that still fits
};

const std::vector<TrainShape> kTrainShapes = {
    {"gpt-7b", 1, 4, 2, 2},     {"gpt-7b", 2, 8, 1, 2},
    {"gpt-22b", 2, 8, 2, 2},    {"llama2-7b", 1, 8, 1, 2},
    {"llama2-13b", 2, 8, 2, 2}, {"llama3-8b", 1, 4, 2, 2},
    {"gpt-175b", 8, 8, 8, 1},   {"llama2-70b", 4, 8, 4, 1},
};

struct InferShape
{
    const char *model;
    std::vector<long long> tp;
};

const std::vector<InferShape> kInferShapes = {
    {"llama2-7b", {1, 2, 4, 8}},
    {"llama2-13b", {1, 2, 4, 8}},
    {"llama2-70b", {4, 8}},
    {"llama3-8b", {1, 2, 4, 8}},
};

/** One generated config; exactly one of training / inference. */
struct Config
{
    bool training = true;
    std::string model;
    std::string system;
    int nodes = 1;
    ParallelConfig par;
    long long batch = 64;
    TrainingOptions train;
    InferenceOptions infer;
    std::string expectRule;  ///< non-empty: lint must reject with it
};

/** The config document `optimus_cli` reads, with presets expanded. */
JsonValue
configJson(const TransformerConfig &model, const System &sys,
           const Config &c)
{
    JsonValue j = JsonValue::object();
    j.set("model", config::toJson(model));
    j.set("system", config::toJson(sys));
    if (c.training) {
        j.set("parallel", config::toJson(c.par));
        j.set("batch", JsonValue::number(double(c.batch)));
        j.set("training", config::toJson(c.train));
    } else {
        j.set("inference", config::toJson(c.infer));
    }
    return j;
}

/** Config state after the JSON round trip. */
struct Parsed
{
    TransformerConfig model;
    System sys;
    Config cfg;
    bool lintThrew = false;
    lint::LintReport lintReport;
};

Parsed
roundTrip(const Config &c)
{
    TransformerConfig model = config::modelPreset(c.model);
    System sys = config::systemPreset(c.system, c.nodes);
    const std::string text = configJson(model, sys, c).dump(2);
    Parsed p;
    p.cfg = c;
    try {
        JsonValue doc = JsonValue::parse(text);
        p.model = config::modelFromJson(doc.at("model"));
        p.sys = config::systemFromJson(doc.at("system"));
        if (c.training) {
            p.cfg.par = config::parallelFromJson(doc.at("parallel"));
            p.cfg.batch = doc.at("batch").asInt();
            p.cfg.train =
                config::trainingOptionsFromJson(doc.at("training"));
        } else {
            p.cfg.infer =
                config::inferenceOptionsFromJson(doc.at("inference"));
        }
    } catch (const LintError &e) {
        // A deserializer rejected a component outright (as `lint`).
        p.lintThrew = true;
        p.lintReport = e.report();
        return p;
    }
    require(configJson(p.model, p.sys, p.cfg).dump(2) == text,
            "config JSON round trip is not a fixed point");
    return p;
}

lint::LintReport
lintConfig(const Parsed &p)
{
    if (p.lintThrew)
        return p.lintReport;
    const Config &c = p.cfg;
    return c.training ? lint::lintTraining(p.model, p.sys, c.par,
                                           c.batch, c.train)
                      : lint::lintInference(p.model, p.sys, c.infer);
}

/** Gate the lint verdict; true when the config may proceed. */
bool
checkLint(const Config &c, const lint::LintReport &report)
{
    if (!c.expectRule.empty()) {
        require(report.hasErrors() && report.has(c.expectRule),
                "illegal config was not rejected with " + c.expectRule);
        return false;
    }
    require(!report.hasErrors(),
            "legal config rejected by lint: " + report.joinedMessages());
    return true;
}

report::RunRecord
record(const Parsed &p)
{
    const Config &c = p.cfg;
    report::RunRecord rec =
        c.training ? report::recordTraining(p.model, p.sys, c.par,
                                            c.batch, c.train, "bench")
                   : report::recordInference(p.model, p.sys, c.infer,
                                             "bench");
    // The ledger write/read path, in memory.
    return report::recordFromJson(
        JsonValue::parse(report::toJson(rec).dump(2)));
}

/** Evaluate with a live session; returns the modeled total. */
double
evaluateTraced(const Parsed &p, TraceSession &session)
{
    const Config &c = p.cfg;
    double total = 0.0;
    if (c.training) {
        TrainingOptions o = c.train;
        o.trace = &session;
        total = checkTraining(
                    evaluateTraining(p.model, p.sys, c.par, c.batch, o))
                    .front();
    } else {
        InferenceOptions o = c.infer;
        o.trace = &session;
        total = checkInference(evaluateInference(p.model, p.sys, o))
                    .back();
    }
    // The trace decomposes the model: category sums (kernel-detail
    // spans excluded) reproduce the reported total.
    double span_total = 0.0;
    for (const auto &kv : session.categoryTotals())
        if (kv.first != "kernel")
            span_total += kv.second;
    near(span_total, total, 1e-9,
         "trace category sums differ from the reported total");
    return total;
}

/** Untraced evaluation of the same config (trace.overhead_x base). */
double
evaluatePlain(const Parsed &p)
{
    const Config &c = p.cfg;
    return c.training ? evaluateTraining(p.model, p.sys, c.par, c.batch,
                                         c.train)
                            .timePerBatch
                      : evaluateInference(p.model, p.sys, c.infer)
                            .totalLatency;
}

size_t
exportTrace(const TraceSession &session)
{
    std::string chrome = chromeTraceJson(session).dump();
    std::string csv = kernelCsv(session);
    require(!chrome.empty() && !csv.empty(), "empty trace export");
    return chrome.size() + csv.size();
}

/** The `kernels --json` dump; returns the document size. */
size_t
planDump(const plan::EvaluatedPlan &ep)
{
    std::string doc = plan::planJson(ep).dump(2);
    require(!doc.empty(), "empty plan JSON");
    return doc.size();
}

int
diffExit(const report::RunRecord &a, const report::RunRecord &b)
{
    return report::checkExitCode(report::diffRuns(a, b));
}

Predictions
predictions(const report::RunRecord &rec, double traced_total,
            const TraceSession &session)
{
    near(rec.metric("time/total"), traced_total, 1e-9,
         "recorded total differs from the traced evaluation");
    return {traced_total, double(rec.kernels.size()),
            double(session.spans().size())};
}

Predictions
runConfig(const Config &c)
{
    Parsed p = roundTrip(c);
    lint::LintReport lr = lintConfig(p);
    if (!checkLint(c, lr))
        return {double(lr.errorCount())};
    report::RunRecord rec = record(p);
    TraceSession session;
    const double total = evaluateTraced(p, session);
    exportTrace(session);
    plan::EvaluatedPlan ep =
        c.training ? plan::runTraining(p.model, p.sys, c.par, c.batch,
                                       c.train, true)
                         .plan
                   : plan::runInference(p.model, p.sys, c.infer, true)
                         .plan;
    require(!plan::kernelAggregates(ep).empty(), "no kernel aggregates");
    planDump(ep);
    require(diffExit(rec, record(p)) == 0,
            "diff --check of a record against its re-record drifted");
    return predictions(rec, total, session);
}

Predictions
replayConfig(const Config &c, Layers &layers)
{
    Parsed p = timed(layers, "config.roundtrip_ms",
                     [&] { return roundTrip(c); });
    lint::LintReport lr =
        timed(layers, "lint.ms", [&] { return lintConfig(p); });
    if (!checkLint(c, lr)) {
        layers["lint.rejected"] += 1.0;
        return {double(lr.errorCount())};
    }
    report::RunRecord rec =
        timed(layers, "report.record_ms", [&] { return record(p); });

    TraceSession session;
    const double total = timed(layers, "trace.traced_ms", [&] {
        return evaluateTraced(p, session);
    });
    timedExtra(layers, "trace.untraced_ms",
               [&] { return evaluatePlain(p); });
    layers["trace.spans"] += double(session.spans().size());
    timed(layers, "trace.export_ms",
          [&] { return exportTrace(session); });

    Replayed r = c.training
                     ? replayTraining(p.model, p.sys, c.par, c.batch,
                                      c.train, layers, true)
                     : replayInference(p.model, p.sys, c.infer, layers,
                                       true);
    near(r.total(), total, 1e-9,
         "replayed fold total differs from the traced evaluation");
    timed(layers, "trace.export_ms", [&] { return planDump(r.plan); });

    report::RunRecord again =
        timed(layers, "report.record_ms", [&] { return record(p); });
    int code = timed(layers, "report.diff_ms",
                     [&] { return diffExit(rec, again); });
    require(code == 0,
            "diff --check of a record against its re-record drifted");
    return predictions(rec, total, session);
}

Call
makeCall(const Config &c)
{
    Call call;
    call.kind = !c.expectRule.empty() ? "record/illegal"
                : c.training          ? "record/train"
                                      : "record/infer";
    call.input = describe(c.model, c.system, c.nodes);
    if (c.training) {
        call.input.set("parallel", config::toJson(c.par));
        call.input.set("batch", JsonValue::number(double(c.batch)));
        call.input.set("training", config::toJson(c.train));
    } else {
        call.input.set("inference", config::toJson(c.infer));
    }
    call.input.set("expect_rule", JsonValue::string(c.expectRule));
    call.run = [c] { return runConfig(c); };
    call.replay = [c](Layers &layers) { return replayConfig(c, layers); };
    return call;
}

/**
 * A legal training config. @p slot stratifies what drives the call's
 * cost (microbatches per step, and so trace spans; recompute; sequence
 * parallelism) so each shape covers every choice across its configs.
 */
Config
trainingConfig(Rng &rng, const TrainShape &s, long long slot)
{
    Config c;
    c.model = s.model;
    c.system = rng.pick<std::string>({"dgx-a100", "dgx-h100"});
    c.nodes = s.nodes;
    c.par.tensorParallel = s.tp;
    c.par.pipelineParallel = s.pp;
    c.par.dataParallel = (8LL * s.nodes) / (s.tp * s.pp);
    c.par.sequenceParallel = s.tp > 1 && slot / 2 % 2 == 1;
    c.par.microbatchSize = rng.range(1, s.maxMicro);
    const long long microbatches = 8LL << (slot % 3);
    c.batch = c.par.dataParallel * c.par.microbatchSize * microbatches;
    c.train.recompute =
        slot % 2 ? Recompute::Selective : Recompute::Full;
    return c;
}

/**
 * A legal short-generation inference config; @p slot stratifies the
 * generated tokens (8..80), which drive the call's cost.
 */
Config
inferenceConfig(Rng &rng, const InferShape &s, long long slot)
{
    Config c;
    c.training = false;
    c.model = s.model;
    c.system = rng.pick<std::string>({"dgx-a100", "dgx-h100"});
    c.infer.tensorParallel = rng.pick(s.tp);
    c.infer.batch = rng.logRange(1, 16);
    c.infer.promptLength = rng.logRange(128, 1024);
    c.infer.generateLength =
        static_cast<long long>((8 << (slot % 4)) * rng.uniform(1.0, 1.25));
    c.infer.flashAttention = rng.range(0, 1) == 1;
    // FP8 KV storage needs an FP8-capable device (H100).
    c.infer.kvPrecision = c.system == "dgx-h100" && rng.range(0, 1)
                              ? Precision::FP8
                              : Precision::FP16;
    return c;
}

/** Deliberately illegal configs, each with the rule lint must raise. */
Config
illegalConfig(Rng &rng, int k)
{
    switch (k % 3) {
      case 0: {
        // examples/configs/lint_bad_tp7.json: TP 7 divides no head count.
        Config c = trainingConfig(rng, {"gpt-175b", 8, 8, 8, 1}, k);
        c.par.tensorParallel = 7;
        c.expectRule = lint::kRuleTpHeads;
        return c;
      }
      case 1: {
        // More devices mapped than the system has.
        Config c = trainingConfig(rng, {"gpt-7b", 1, 4, 2, 2}, k);
        c.par.dataParallel *= 2;
        c.expectRule = lint::kRuleDeviceCount;
        return c;
      }
      default: {
        Config c = inferenceConfig(rng, kInferShapes[0], k);
        c.infer.tensorParallel = 3;
        c.expectRule = lint::kRuleTpHeads;
        return c;
      }
    }
}

} // namespace

std::vector<Call>
recordExplain(uint64_t seed)
{
    Rng rng(seed);
    const long long offset = rng.range(0, 59);
    const size_t shapes = kTrainShapes.size();
    std::vector<Call> calls;
    for (int k = 0; k < kTraining; ++k)
        calls.push_back(makeCall(trainingConfig(
            rng, kTrainShapes[k % shapes], k / shapes + k % shapes + offset)));
    for (int k = 0; k < kInference; ++k)
        calls.push_back(makeCall(inferenceConfig(
            rng, kInferShapes[k % kInferShapes.size()],
            k / kInferShapes.size() + offset)));
    for (int k = 0; k < kIllegal; ++k)
        calls.push_back(makeCall(illegalConfig(rng, k)));
    return calls;
}

} // namespace bench
