/**
 * @file
 * Lowering of an inference configuration onto the kernel-plan IR.
 *
 * Prefill lowers to one step per layer op (repeated over the L
 * layers). Decode lowers to one range step per op (PlanStep::tokens):
 * the structure is lowered once and the context is bound per token,
 * so the plan's size does not depend on generateLength. Each token's
 * instance aggregates the L layers into a single span — the
 * historical decode-lane shape. lowerDecode owns every decode step;
 * lowerInference puts the prefill steps in front of them, and the
 * serving and speculative-decoding models evaluate a one-token
 * lowerDecode plan as their decode step. All TP/PP communication
 * scopes go through groupScopeFor(), so a TP group larger than a node
 * correctly pays the inter-node link.
 */

#include "plan/plan.h"

#include <iterator>

#include "hw/precision.h"
#include "util/error.h"

namespace optimus {
namespace plan {

namespace {

/** One bound-bucketed kernel step for a single op on @p phase's lane. */
PlanStep
opStep(const Op &op, const char *phase)
{
    PlanStep s;
    s.kind = StepKind::Compute;
    s.lane = phase;
    s.name = op.name;
    s.phase = phase;
    s.bucketByBound = true;
    s.kernelDetail = true;
    s.parts.push_back({op.name, {op}, 1.0});
    return s;
}

/** A collective step on @p phase's comm lane. */
PlanStep
commStep(const std::string &phase, const char *name, CollectiveKind kind,
         double volume, long long group, GroupScope scope, double calls)
{
    PlanStep s;
    s.kind = StepKind::Collective;
    s.lane = phase + "/comm";
    s.name = name;
    s.category = phase + "-comm";
    s.phase = phase;
    s.collective = kind;
    s.volume = volume;
    s.groupSize = group;
    s.scope = scope;
    s.callsPerInstance = calls;
    return s;
}

} // namespace

KernelPlan
lowerDecode(const TransformerConfig &cfg, const System &sys,
            const InferenceOptions &opts)
{
    cfg.validate();
    sys.validate();
    checkPositive(opts.batch, "batch");
    checkConfig(opts.promptLength >= 0,
                "promptLength must be non-negative");
    checkPositive(opts.generateLength, "generateLength");
    checkPositive(opts.tensorParallel, "tensorParallel");
    checkPositive(opts.pipelineParallel, "pipelineParallel");
    checkConfig(opts.tensorParallel * opts.pipelineParallel <=
                    sys.totalDevices(),
                "TP x PP exceeds system size");
    checkConfig(cfg.numLayers % opts.pipelineParallel == 0,
                "layers must divide by the PP degree");

    const long long L = cfg.numLayers;
    const long long tp = opts.tensorParallel;
    const long long G = opts.generateLength;
    // Activation bytes of one token of every sequence.
    const double token_bytes = double(opts.batch) *
                               double(cfg.hiddenSize) *
                               precisionBytes(opts.precision);

    KernelPlan kp;
    kp.phase = "inference";
    kp.lanes = {"decode", "decode/comm"};
    kp.counters = {{"infer/decode-tokens", double(G)},
                   {"infer/layers", double(L)}};
    kp.layersPerStage = L;

    // One range step per op covers every generated token; token i
    // attends over prompt + i + 1 cached positions. Only the attention
    // ops (Op::spanDim) change from token to token, and the evaluator
    // rebinds their span per token.
    auto decodeRange = [&](PlanStep s) {
        s.tokens = G;
        s.contextStart = opts.promptLength + 1;
        s.spanCap = cfg.attentionSpan(opts.promptLength + G);
        kp.steps.push_back(std::move(s));
    };
    for (const Op &op :
         decodeLayerOps(cfg, opts.batch, opts.promptLength + 1, tp,
                        opts.precision, opts.kvPrecision)) {
        PlanStep s = opStep(op, "decode");
        s.repeatLayer = L;
        s.aggregateLayers = true;
        decodeRange(std::move(s));
    }

    // TP all-reduce of the layer's two row-parallel outputs.
    if (tp > 1) {
        PlanStep s = commStep("decode", "tp-allreduce",
                              CollectiveKind::AllReduce, token_bytes, tp,
                              groupScopeFor(sys, tp), 2.0);
        s.repeatLayer = L;
        s.aggregateLayers = true;
        s.algorithm = opts.collectiveAlgorithm;
        decodeRange(std::move(s));
    }

    // Sampling head, once per generated token.
    for (const Op &op : headOps(cfg, opts.batch, tp, opts.precision))
        decodeRange(opStep(op, "decode"));

    // Pipeline-parallel stages add one activation hop per boundary and
    // generated token. The hop uses the default (auto) algorithm
    // choice — a p2p has no algorithm knob.
    if (opts.pipelineParallel > 1) {
        PlanStep s = commStep(
            "decode", "pp-hops", CollectiveKind::PointToPoint,
            token_bytes, 2, groupScopeFor(sys, tp * opts.pipelineParallel),
            double(opts.pipelineParallel - 1));
        s.repeatLayer = G;
        s.aggregateLayers = true;
        kp.steps.push_back(std::move(s));
    }
    return kp;
}

KernelPlan
lowerInference(const TransformerConfig &cfg, const System &sys,
               const InferenceOptions &opts)
{
    checkPositive(opts.promptLength, "promptLength");
    KernelPlan kp = lowerDecode(cfg, sys, opts);
    kp.lanes = {"prefill", "prefill/comm", "decode", "decode/comm"};

    const long long L = cfg.numLayers;
    const long long tp = opts.tensorParallel;
    // Activation bytes of the whole prompt of every sequence.
    const double prompt_bytes = double(opts.batch) * opts.promptLength *
                                double(cfg.hiddenSize) *
                                precisionBytes(opts.precision);
    std::vector<PlanStep> prefill;

    LayerGraphParams gp;
    gp.batch = opts.batch;
    gp.seq = opts.promptLength;
    gp.tensorParallel = tp;
    gp.precision = opts.precision;
    gp.training = false;
    gp.flashAttention = opts.flashAttention;
    for (const Op &op : layerForwardOps(cfg, gp)) {
        PlanStep s = opStep(op, "prefill");
        s.repeatLayer = L;
        s.coordLayer = true;
        prefill.push_back(std::move(s));
    }

    if (tp > 1) {
        PlanStep s = commStep("prefill", "tp-allreduce",
                              CollectiveKind::AllReduce, prompt_bytes, tp,
                              groupScopeFor(sys, tp), 2.0);
        s.repeatLayer = L;
        s.coordLayer = true;
        s.algorithm = opts.collectiveAlgorithm;
        prefill.push_back(std::move(s));
    }

    // First sampled token: the LM head runs once on the last position.
    for (const Op &op : headOps(cfg, opts.batch, tp, opts.precision))
        prefill.push_back(opStep(op, "prefill"));

    // One activation hop per pipeline boundary for the prefill pass.
    if (opts.pipelineParallel > 1)
        prefill.push_back(commStep(
            "prefill", "pp-hops", CollectiveKind::PointToPoint,
            prompt_bytes, 2, groupScopeFor(sys, tp * opts.pipelineParallel),
            double(opts.pipelineParallel - 1)));

    kp.steps.insert(kp.steps.begin(),
                    std::make_move_iterator(prefill.begin()),
                    std::make_move_iterator(prefill.end()));
    return kp;
}

} // namespace plan
} // namespace optimus
