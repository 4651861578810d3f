/**
 * @file
 * decode_serve: a shuffled mix of evaluateInference (generation
 * lengths log-spread 64..4096), planServing and evaluateSpeculative
 * calls. Plan size grows with generated tokens today, so the long
 * generations set call_p95_ms and peak_rss_mb here.
 *
 * The inference population is stratified so its cost mix barely moves
 * with the seed: each of kGenBins log-spaced generation-length bins
 * holds one call per model (two in the lower kDenseBins), each at its
 * own sub-slot of the bin, the models rotated one sub-slot per bin
 * (every model visits every position). Batch (1..64), prompt
 * (128..4096), system, KV precision and TP cycle through their choices
 * too. The seed jitters the length inside each sub-slot and draws the
 * serving and speculative problems. (With seeded batch and prompt
 * offsets, the calls next to the median changed cost with the seed
 * and call_p50_ms spread 12% over ten seeds.) One anchor call
 * generates exactly 4096 tokens on the model with the most plan steps
 * per token, so the largest plan, which sets most of peak_rss_mb, is
 * the same for every seed.
 *
 * The tp16-over-two-nodes serving and speculative problems stay in the
 * mix on purpose: both paths still hardcode an intra-node TP scope and
 * throw "intra-node group larger than a node". They count as failed
 * calls (knownDefect), never as passes, and never get filtered out.
 */

#include <algorithm>
#include <cmath>

#include "replay.h"
#include "workloads.h"

namespace bench {

using namespace optimus;

namespace {

constexpr int kGenBins = 8;
/**
 * The cheap lower bins hold two calls per model. call_p50_ms falls
 * among them, and adjacent calls there then differ by ~4% in cost
 * instead of ~8%, so the median no longer jumps between neighbours.
 */
constexpr int kDenseBins = 4;
constexpr long long kMinGenerate = 64;
constexpr long long kMaxGenerate = 4096;
constexpr int kServe = 14;
constexpr int kSpeculative = 14;
constexpr int kServeDefect = 2;
constexpr int kSpeculativeDefect = 1;

struct InferModel
{
    const char *name;
    std::vector<long long> tp;  ///< TP degrees dividing every head count
};

const std::vector<InferModel> kInferModels = {
    {"llama2-7b", {1, 2, 4, 8, 16}},  {"llama2-13b", {1, 2, 4, 8}},
    {"llama2-70b", {2, 4, 8}},        {"llama3-8b", {1, 2, 4, 8}},
    {"llama3-70b", {2, 4, 8}},        {"gpt-7b", {1, 2, 4, 8, 16}},
    {"mixtral-8x7b", {1, 2, 4, 8}},
};

const std::vector<std::string> kSystems = {"dgx-a100", "dgx-h100"};

JsonValue
precisionJson(Precision p)
{
    return JsonValue::string(precisionName(p));
}

// ---- evaluateInference --------------------------------------------

struct InferProblem
{
    std::string model;
    std::string system;
    int nodes = 1;
    InferenceOptions opts;
};

Call
inferCall(const InferProblem &p)
{
    Call c;
    c.kind = "evaluateInference";
    c.input = describe(p.model, p.system, p.nodes);
    c.input.set("tp", JsonValue::number(double(p.opts.tensorParallel)));
    c.input.set("batch", JsonValue::number(double(p.opts.batch)));
    c.input.set("prompt", JsonValue::number(double(p.opts.promptLength)));
    c.input.set("generate",
                JsonValue::number(double(p.opts.generateLength)));
    c.input.set("kv", precisionJson(p.opts.kvPrecision));
    c.run = [p] {
        return checkInference(evaluateInference(
            config::modelPreset(p.model),
            config::systemPreset(p.system, p.nodes), p.opts));
    };
    c.replay = [p](Layers &layers) {
        return replayInference(config::modelPreset(p.model),
                               config::systemPreset(p.system, p.nodes),
                               p.opts, layers)
            .predictions;
    };
    return c;
}

// ---- planServing ----------------------------------------------------

struct ServeProblem
{
    std::string model;
    std::string system;
    int nodes = 1;
    ServingPlannerOptions opts;
};

Predictions
servingPredictions(const std::vector<ServingPlan> &plans)
{
    require(!plans.empty(), "planServing found no deployment");
    Predictions out;
    for (const ServingPlan &p : plans) {
        positive(p.tokensPerSecondPerDevice, "tokens/s/device");
        positive(p.point.decodeStepTime, "serving decode step");
        positive(p.point.timeToFirstToken, "serving TTFT");
        out.insert(out.end(), {double(p.tensorParallel),
                               double(p.point.batch),
                               p.point.decodeStepTime,
                               p.point.timeToFirstToken,
                               p.tokensPerSecondPerDevice});
    }
    return out;
}

Call
serveCall(const ServeProblem &p, bool known_defect)
{
    Call c;
    c.kind = "planServing";
    c.knownDefect = known_defect;
    c.input = describe(p.model, p.system, p.nodes);
    JsonValue tps = JsonValue::array();
    for (long long tp : p.opts.tensorParallelChoices)
        tps.push(JsonValue::number(double(tp)));
    c.input.set("tp", tps);
    c.input.set("prompt",
                JsonValue::number(double(p.opts.serving.promptLength)));
    c.input.set("generate",
                JsonValue::number(double(p.opts.serving.generateLength)));
    c.input.set("kv", precisionJson(p.opts.serving.kvPrecision));
    c.input.set("max_batch", JsonValue::number(double(p.opts.maxBatch)));
    c.input.set("slo_s", JsonValue::number(p.opts.maxInterTokenLatency));
    auto call = [p](TraceSession *trace) {
        ServingPlannerOptions opts = p.opts;
        opts.trace = trace;
        return servingPredictions(
            planServing(config::modelPreset(p.model),
                        config::systemPreset(p.system, p.nodes), opts));
    };
    c.run = [call] { return call(nullptr); };
    c.replay = [call](Layers &layers) {
        TraceSession session;
        return timed(layers, "serving.ms", [&] { return call(&session); });
    };
    return c;
}

// ---- evaluateSpeculative ---------------------------------------------

struct SpecProblem
{
    std::string target;
    std::string draft;
    std::string system;
    int nodes = 1;
    SpeculativeOptions opts;
};

const std::vector<std::pair<std::string, std::string>> kSpecPairs = {
    {"llama2-70b", "llama2-7b"},
    {"llama2-13b", "llama2-7b"},
    {"llama3-70b", "llama3-8b"},
};

Call
specCall(const SpecProblem &p, bool known_defect)
{
    Call c;
    c.kind = "evaluateSpeculative";
    c.knownDefect = known_defect;
    c.input = describe(p.target, p.system, p.nodes);
    c.input.set("draft", JsonValue::string(p.draft));
    c.input.set("tp", JsonValue::number(double(p.opts.tensorParallel)));
    c.input.set("context", JsonValue::number(double(p.opts.context)));
    c.input.set("gamma", JsonValue::number(double(p.opts.gamma)));
    c.input.set("acceptance", JsonValue::number(p.opts.acceptanceRate));
    auto call = [p] {
        SpeculativeReport r = evaluateSpeculative(
            config::modelPreset(p.target), config::modelPreset(p.draft),
            config::systemPreset(p.system, p.nodes), p.opts);
        positive(r.cycleTime, "speculative cycle time");
        positive(r.tokensPerSecond, "speculative tokens/s");
        positive(r.speedup, "speculative speedup");
        near(r.cycleTime,
             double(p.opts.gamma) * r.draftStepTime + r.verifyTime, 1e-9,
             "cycle time is not gamma drafts plus one verify");
        return Predictions{r.draftStepTime, r.verifyTime,
                           r.tokensPerSecond, r.speedup};
    };
    c.run = call;
    c.replay = [call](Layers &layers) {
        return timed(layers, "speculative.ms", call);
    };
    return c;
}

} // namespace

std::vector<Call>
decodeServe(uint64_t seed)
{
    Rng rng(seed);
    std::vector<Call> calls;

    // Call k of the inference population: batch, prompt, system, KV
    // precision and TP cycle through their choices.
    auto infer = [&](const InferModel &m, long long generate, long long k) {
        InferProblem p;
        p.model = m.name;
        p.system = kSystems[static_cast<size_t>(k % 2)];
        const long long tp = m.tp[static_cast<size_t>(k / 2) % m.tp.size()];
        p.nodes = tp > 8 ? 2 : int(1 + k / 3 % 2);
        p.opts.tensorParallel = tp;
        p.opts.batch = 1LL << (k % 7);
        p.opts.promptLength = 128LL << (k % 6);
        p.opts.generateLength = generate;
        p.opts.flashAttention = true;
        // FP8 KV storage needs an FP8-capable device (H100).
        p.opts.kvPrecision = p.system == "dgx-h100" && k / 4 % 2
                                 ? Precision::FP8
                                 : Precision::FP16;
        return p;
    };

    const double lo = std::log(double(kMinGenerate));
    const double bin = (std::log(double(kMaxGenerate)) - lo) / kGenBins;
    const size_t models = kInferModels.size();
    long long index = 0;
    for (int b = 0; b < kGenBins; ++b) {
        const size_t per_bin = b < kDenseBins ? 2 * models : models;
        for (size_t slot = 0; slot < per_bin; ++slot) {
            const double pos =
                (double(slot) + rng.uniform(0.0, 1.0)) / double(per_bin);
            const long long generate = std::min(
                kMaxGenerate - 1,
                static_cast<long long>(std::exp(lo + (b + pos) * bin)));
            calls.push_back(inferCall(infer(
                kInferModels[(slot + size_t(b)) % models], generate,
                index++)));
        }
    }
    // The anchor: Mixtral lowers the most steps per decoded token.
    InferProblem anchor =
        infer({"mixtral-8x7b", {8}}, kMaxGenerate, index);
    calls.push_back(inferCall(anchor));

    for (int k = 0; k < kServe; ++k) {
        const bool defect = k < kServeDefect;
        ServeProblem p;
        p.model = defect ? (k == 0 ? "llama2-70b" : "llama2-7b")
                         : rng.pick(kInferModels).name;
        p.system = rng.pick(kSystems);
        p.nodes = defect ? 2 : 1;
        p.opts.tensorParallelChoices =
            defect ? std::vector<long long>{8, 16}
                   : std::vector<long long>{1, 2, 4, 8};
        p.opts.serving.promptLength = rng.logRange(128, 2048);
        p.opts.serving.generateLength = rng.logRange(64, 1024);
        p.opts.serving.kvPrecision =
            p.system == "dgx-h100" && rng.range(0, 1) ? Precision::FP8
                                                      : Precision::FP16;
        p.opts.maxBatch = rng.pick<long long>({32, 64, 128, 256});
        p.opts.maxInterTokenLatency = rng.pick<double>({0.0, 0.05, 0.1});
        calls.push_back(serveCall(p, defect));
    }

    for (int k = 0; k < kSpeculative; ++k) {
        const bool defect = k < kSpeculativeDefect;
        SpecProblem p;
        const auto &pair = defect ? kSpecPairs[0] : rng.pick(kSpecPairs);
        p.target = pair.first;
        p.draft = pair.second;
        p.system = rng.pick(kSystems);
        p.nodes = defect ? 2 : 1;
        p.opts.tensorParallel =
            defect ? 16 : rng.pick<long long>({1, 2, 4, 8});
        p.opts.context = rng.logRange(128, 4096);
        p.opts.gamma = rng.range(2, 8);
        p.opts.acceptanceRate = rng.uniform(0.5, 0.9);
        calls.push_back(specCall(p, defect));
    }
    return calls;
}

} // namespace bench
