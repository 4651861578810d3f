/**
 * @file
 * Lowering of training and inference configurations onto the
 * kernel-plan IR. Every step is built by the step builders below:
 * partStep (a compute part), opStep (a single-op kernel step) and
 * commStep (a collective), all over newStep (the step's identity),
 * which the synthetic steps use directly.
 *
 * Training lowers in two parts. The layer part (buildLayers) holds
 * what depends only on the layer shape: the forward op list, the
 * backward list derived from it, the LM head and the embedding, each
 * evaluated once on the device. The mapping part (bindLayers) holds
 * everything else and points its compute steps at those parts: the
 * recompute step is the forward part scaled by the recomputed
 * fraction. Step order is load-bearing. It fixes the breakdown-field
 * summation order (so the fold reproduces the historical
 * TrainingBreakdown numbers) and the busy-time prefix the
 * pipeline-bubble step scales.
 *
 * Inference: prefill lowers to one step per layer op (repeated over
 * the L layers). Decode lowers to one range step per op
 * (PlanStep::tokens): the structure is lowered once and the context
 * is bound per token, so the plan's size does not depend on
 * generateLength. Each token's instance aggregates the L layers into
 * a single span — the historical decode-lane shape. lowerDecode owns
 * every decode step; lowerInference puts the prefill steps in front
 * of them, and the serving and speculative-decoding models evaluate a
 * one-token lowerDecode plan as their decode step. All communication
 * scopes go through groupScopeFor(), so a TP group larger than a node
 * correctly pays the inter-node link.
 */

#include "plan/plan.h"

#include <algorithm>
#include <iterator>

#include "hw/precision.h"
#include "memory/footprint.h"
#include "parallel/pipeline.h"
#include "util/error.h"
#include "workload/activation.h"

namespace optimus {
namespace plan {

namespace {

/** A step of @p kind with its identity, category and phase. */
PlanStep
newStep(StepKind kind, std::string lane, std::string name,
        std::string category, std::string phase)
{
    PlanStep s;
    s.kind = kind;
    s.lane = std::move(lane);
    s.name = std::move(name);
    s.category = std::move(category);
    s.phase = std::move(phase);
    return s;
}

/** A compute step running @p part per instance. */
PlanStep
partStep(std::string lane, std::string name, std::string category,
         std::string phase, ComputePart part)
{
    PlanStep s = newStep(StepKind::Compute, std::move(lane),
                         std::move(name), std::move(category),
                         std::move(phase));
    s.parts.push_back(std::move(part));
    return s;
}

/** A single-op kernel step for @p op on @p phase's lane. */
PlanStep
opStep(const Op &op, const char *phase)
{
    ComputePart part;
    part.label = op.name;
    part.ops = std::vector<Op>{op};
    PlanStep s = partStep(phase, op.name, "", phase, std::move(part));
    s.kernelStep = true;
    return s;
}

/** @p calls collectives of @p volume bytes each per instance. */
PlanStep
commStep(std::string lane, std::string name, std::string category,
         std::string phase, CollectiveKind kind, double volume,
         long long group, GroupScope scope, CollectiveAlgorithm algorithm,
         double calls)
{
    PlanStep s = newStep(StepKind::Collective, std::move(lane),
                         std::move(name), std::move(category),
                         std::move(phase));
    s.collective = kind;
    s.volume = volume;
    s.groupSize = group;
    s.scope = scope;
    s.algorithm = algorithm;
    s.callsPerInstance = calls;
    return s;
}

/** The checks every training lowering makes before building. */
void
checkTraining(const TransformerConfig &cfg, const System &sys,
              const ParallelConfig &par, long long global_batch,
              const TrainingOptions &opts)
{
    cfg.validate();
    sys.validate();
    par.validate(cfg, sys, global_batch);
    checkPositive(opts.seqLength, "seqLength");
    checkConfig(opts.seqLength % par.contextParallel == 0,
                "sequence length must divide by the CP degree");
}

/** The layer shape a training mapping runs. */
LayerGraphParams
layerShape(const ParallelConfig &par, const TrainingOptions &opts)
{
    LayerGraphParams gp;
    gp.batch = par.microbatchSize;
    gp.seq = opts.seqLength;
    gp.tensorParallel = par.tensorParallel;
    gp.sequenceParallel = par.sequenceParallel;
    gp.precision = opts.precision;
    gp.training = true;
    gp.flashAttention = opts.flashAttention;
    gp.expertParallel = par.expertParallel;
    gp.contextParallel = par.contextParallel;
    return gp;
}

/**
 * The layer part of a checked configuration. One allocation holds
 * every list and estimate; the parts point into it.
 */
LayerPart
buildLayers(const TransformerConfig &cfg, const System &sys,
            const ParallelConfig &par, const TrainingOptions &opts)
{
    struct Store
    {
        std::vector<Op> forward, backward, head, embedding;
        KernelEstimate forwardEst, backwardEst, headEst, embeddingEst;
    };
    auto store = std::make_shared<Store>();
    LayerPart lp;
    lp.shape = layerShape(par, opts);
    lp.activationBytes = opts.memory.activationBytes;
    store->forward = layerForwardOps(cfg, lp.shape);
    store->backward = layerBackwardOps(store->forward);

    // Embedding + LM head of one microbatch. The head GEMM runs
    // forward + backward (3x); embedding backward is a scatter of
    // comparable traffic (2x).
    const long long mb_tokens = par.microbatchSize * opts.seqLength;
    store->head =
        headOps(cfg, mb_tokens, par.tensorParallel, opts.precision);
    Op embed;
    embed.name = "embedding";
    embed.kind = OpKind::Stream;
    embed.streamBytes = 2.0 * double(mb_tokens) * cfg.hiddenSize *
                        lp.activationBytes;
    embed.streamFlops = 0.0;
    embed.streamPrecision = opts.precision;
    store->embedding.push_back(embed);

    auto part = [&](std::string label, std::vector<Op> &ops,
                    KernelEstimate &est, double scale) {
        ComputePart cp;
        cp.label = std::move(label);
        cp.ops =
            OpList(std::shared_ptr<const std::vector<Op>>(store, &ops));
        cp.scale = scale;
        est = evaluatePart(sys.device, cp);
        cp.estimate = std::shared_ptr<const KernelEstimate>(store, &est);
        return cp;
    };
    lp.forward = part("layer-fwd", store->forward, store->forwardEst, 1.0);
    lp.backward =
        part("layer-bwd", store->backward, store->backwardEst, 1.0);
    lp.head = part("head", store->head, store->headEst, 3.0);
    lp.embedding =
        part("embedding", store->embedding, store->embeddingEst, 2.0);
    return lp;
}

/** The mapping part of a checked configuration around @p layers. */
KernelPlan
bindLayers(const LayerPart &layers, const TransformerConfig &cfg,
           const System &sys, const ParallelConfig &par,
           long long global_batch, const TrainingOptions &opts)
{
    const long long tp = par.tensorParallel;
    const long long pp = par.pipelineParallel;
    const long long layers_local = cfg.numLayers / pp;
    const long long m = par.microbatches(global_batch);
    const double act_bytes = opts.memory.activationBytes;
    const CollectiveAlgorithm algo = opts.collectiveAlgorithm;
    // Activation bytes of one microbatch.
    const double mb_bytes = double(par.microbatchSize) * opts.seqLength *
                            cfg.hiddenSize * act_bytes;
    // Full recomputation replays the forward pass's collectives.
    const bool full = opts.recompute == Recompute::Full;

    KernelPlan kp;
    kp.phase = "training";
    // The critical (worst) pipeline stage — the one whose per-device
    // time the analytical model predicts; tracing all pp stages would
    // multiply category sums by pp.
    kp.lanes = {"stage0/fwd",  "stage0/bwd", "stage0/recompute",
                "stage0/comm", "stage0/other", "kernels/fwd",
                "kernels/bwd"};
    kp.counters = {{"train/microbatches", double(m)},
                   {"train/layers-per-stage", double(layers_local)}};
    kp.microbatches = m;
    kp.layersPerStage = layers_local;
    kp.steps.reserve(11);

    // Every (microbatch, layer) instance, with both coordinates.
    auto perLayer = [&](PlanStep s) {
        s.repeatMicrobatch = m;
        s.repeatLayer = layers_local;
        s.coordMicrobatch = s.coordLayer = true;
        return s;
    };

    // ---- Per-(microbatch, layer) compute ----------------------------
    PlanStep fwd = perLayer(partStep("stage0/fwd", "layer-fwd",
                                     "forward", "train", layers.forward));
    fwd.detailLane = "kernels/fwd";
    PlanStep bwd = perLayer(partStep("stage0/bwd", "layer-bwd",
                                     "backward", "train",
                                     layers.backward));
    bwd.detailLane = "kernels/bwd";
    kp.steps.push_back(std::move(fwd));
    kp.steps.push_back(std::move(bwd));
    // The recompute step replays the forward list: the forward
    // estimate scaled by the recomputed share of its FLOPs.
    const double recompute_frac =
        recomputeForwardFraction(layers.forward.ops, opts.recompute);
    if (recompute_frac > 0.0) {
        PlanStep s = perLayer(partStep("stage0/recompute",
                                       "layer-recompute", "recompute",
                                       "train", layers.forward));
        s.parts[0].scale = recompute_frac;
        kp.steps.push_back(std::move(s));
    }

    // ---- Embedding + LM head (worst stage carries both) -------------
    {
        // With pipeline parallelism the embedding and the head live on
        // different stages, so the critical stage carries only the
        // larger part.
        PlanStep s = partStep("stage0/fwd", "embed+head", "embedding",
                              "train", layers.head);
        s.parts.push_back(layers.embedding);
        s.repeatMicrobatch = m;
        s.coordMicrobatch = true;
        s.combine = (pp > 1) ? PartCombine::Max : PartCombine::Sum;
        kp.steps.push_back(std::move(s));
    }

    // ---- Tensor/sequence-parallel collectives -----------------------
    if (tp > 1) {
        // Two collectives per block pair (attention, MLP) in forward,
        // two in backward; full recomputation repeats the forward
        // ones. Selective recomputation's region has no collective.
        PlanStep s = perLayer(commStep(
            "stage0/comm", "tp-allreduce", "tp-comm", "train",
            CollectiveKind::AllReduce, mb_bytes, tp,
            groupScopeFor(sys, tp), algo, 4.0 + (full ? 2.0 : 0.0)));
        s.exposedFraction = 1.0 - opts.tpOverlapFraction;
        kp.steps.push_back(std::move(s));
    }

    // ---- Context-parallel ring-attention KV exchange ----------------
    if (par.contextParallel > 1) {
        // Each device's K/V shard circulates around the CP ring: an
        // all-gather's worth of wire traffic per layer in forward,
        // twice in backward (KV again plus their gradients), plus the
        // recompute replay.
        double kv_heads_local =
            std::max(1.0, double(cfg.numKvHeads) / double(tp));
        kp.steps.push_back(perLayer(commStep(
            "stage0/comm", "cp-ring-exchange", "cp-comm", "train",
            CollectiveKind::AllGather,
            2.0 * double(par.microbatchSize) * opts.seqLength *
                kv_heads_local * double(cfg.headDim()) * act_bytes,
            par.contextParallel,
            groupScopeFor(sys, par.contextParallel * tp), algo,
            3.0 + (full ? 1.0 : 0.0))));
    }

    // ---- MoE expert-parallel all-to-all ------------------------------
    if (cfg.isMoe() && par.expertParallel > 1) {
        // Dispatch + combine per layer in forward, again in backward,
        // and once more when full recomputation replays the forward.
        kp.steps.push_back(perLayer(commStep(
            "stage0/comm", "ep-alltoall", "ep-comm", "train",
            CollectiveKind::AllToAll,
            double(par.microbatchSize) * opts.seqLength * cfg.topK *
                cfg.hiddenSize * act_bytes,
            par.expertParallel, groupScopeFor(sys, tp * pp), algo,
            4.0 + (full ? 2.0 : 0.0))));
    }

    // ---- Pipeline schedule ------------------------------------------
    PipelineCost pc =
        pipelineCost(par.schedule, pp, m, par.interleavedStages);
    kp.bubbleFraction = pc.bubbleFraction;
    if (pp > 1) {
        PlanStep s = commStep(
            "stage0/comm", "pp-p2p", "pp-comm", "train",
            CollectiveKind::PointToPoint,
            par.sequenceParallel ? mb_bytes / double(tp) : mb_bytes, 2,
            groupScopeFor(sys, tp * pp), algo, pc.p2pPerMicrobatch);
        s.repeatMicrobatch = m;
        s.coordMicrobatch = true;
        kp.steps.push_back(std::move(s));
    }

    // Bubble applies to the busy time of one pipeline iteration — the
    // running total of every step lowered above this one.
    PlanStep bubble = newStep(StepKind::Synthetic, "stage0/other",
                              "pipeline-bubble", "bubble", "train");
    bubble.synthetic = SyntheticKind::Bubble;
    bubble.syntheticValue = pc.bubbleFraction;
    kp.steps.push_back(std::move(bubble));

    // ---- Data-parallel gradient communication -----------------------
    if (par.dataParallel > 1) {
        GroupScope dp_scope = groupScopeFor(sys, par.totalDevices());
        // Plain DP all-reduces gradients. ZeRO stages reduce-scatter
        // the gradients and all-gather the updated weights — the same
        // total volume as one all-reduce; stage 3 additionally
        // re-gathers the sharded weights around the forward and
        // backward passes.
        PlanStep s = commStep(
            "stage0/comm", "dp-grad-allreduce", "dp-comm", "train",
            CollectiveKind::AllReduce,
            parametersPerDevice(cfg, par) * opts.memory.gradientBytes,
            par.dataParallel, dp_scope, algo, 1.0);
        s.exposedFraction = 1.0 - opts.dpOverlapFraction;
        kp.steps.push_back(std::move(s));

        if (opts.memory.zeroStage >= 3) {
            PlanStep g = commStep(
                "stage0/comm", "zero3-weight-allgather", "dp-comm",
                "train", CollectiveKind::AllGather,
                parametersPerDevice(cfg, par) * opts.memory.weightBytes,
                par.dataParallel, dp_scope, algo, 1.0);
            g.repeatMicrobatch = 2;  // around forward and backward
            kp.steps.push_back(std::move(g));
        }
    }

    // ---- Optimizer step ---------------------------------------------
    // Adam mixed precision: read fp32 master+momentum+variance and the
    // fp16 gradient, write the three fp32 states and the fp16 weight.
    // ZeRO shards the update over the data-parallel group.
    double params = parametersPerDevice(cfg, par);
    if (opts.memory.zeroStage >= 1)
        params /= double(par.dataParallel);
    PlanStep optimizer = newStep(StepKind::Synthetic, "stage0/other",
                                 "optimizer-step", "optimizer", "train");
    optimizer.synthetic = SyntheticKind::Optimizer;
    optimizer.syntheticValue =
        params * (3.0 * 4.0 + 2.0 + 3.0 * 4.0 + 2.0);
    kp.steps.push_back(std::move(optimizer));
    return kp;
}

} // namespace

LayerPart
lowerLayers(const TransformerConfig &cfg, const System &sys,
            const ParallelConfig &par, long long global_batch,
            const TrainingOptions &opts)
{
    checkTraining(cfg, sys, par, global_batch, opts);
    return buildLayers(cfg, sys, par, opts);
}

KernelPlan
lowerTraining(const LayerPart &layers, const TransformerConfig &cfg,
              const System &sys, const ParallelConfig &par,
              long long global_batch, const TrainingOptions &opts)
{
    checkTraining(cfg, sys, par, global_batch, opts);
    checkConfig(layers.shape == layerShape(par, opts) &&
                    layers.activationBytes ==
                        opts.memory.activationBytes,
                "layer part was built for another layer shape");
    return bindLayers(layers, cfg, sys, par, global_batch, opts);
}

KernelPlan
lowerTraining(const TransformerConfig &cfg, const System &sys,
              const ParallelConfig &par, long long global_batch,
              const TrainingOptions &opts)
{
    checkTraining(cfg, sys, par, global_batch, opts);
    return bindLayers(buildLayers(cfg, sys, par, opts), cfg, sys, par,
                      global_batch, opts);
}

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
    const long long pp = opts.pipelineParallel;
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
    // rebinds their span per token. A per-layer step aggregates the L
    // layers of a token into one instance.
    auto decodeRange = [&](PlanStep s, bool per_layer) {
        if (per_layer) {
            s.repeatLayer = L;
            s.aggregateLayers = true;
        }
        s.tokens = G;
        s.contextStart = opts.promptLength + 1;
        s.spanCap = cfg.attentionSpan(opts.promptLength + G);
        kp.steps.push_back(std::move(s));
    };
    for (const Op &op :
         decodeLayerOps(cfg, opts.batch, opts.promptLength + 1, tp,
                        opts.precision, opts.kvPrecision))
        decodeRange(opStep(op, "decode"), true);

    // TP all-reduce of the layer's two row-parallel outputs.
    if (tp > 1)
        decodeRange(commStep("decode/comm", "tp-allreduce", "decode-comm",
                             "decode", CollectiveKind::AllReduce,
                             token_bytes, tp, groupScopeFor(sys, tp),
                             opts.collectiveAlgorithm, 2.0),
                    true);

    // Sampling head, once per generated token.
    for (const Op &op : headOps(cfg, opts.batch, tp, opts.precision))
        decodeRange(opStep(op, "decode"), false);

    // Pipeline-parallel stages add one activation hop per boundary and
    // generated token. The hop uses the default (auto) algorithm
    // choice — a p2p has no algorithm knob.
    if (pp > 1) {
        PlanStep s = commStep(
            "decode/comm", "pp-hops", "decode-comm", "decode",
            CollectiveKind::PointToPoint, token_bytes, 2,
            groupScopeFor(sys, tp * pp), CollectiveAlgorithm::Auto,
            double(pp - 1));
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
    const long long pp = opts.pipelineParallel;
    // Activation bytes of the whole prompt of every sequence.
    const double prompt_bytes = double(opts.batch) * opts.promptLength *
                                double(cfg.hiddenSize) *
                                precisionBytes(opts.precision);
    std::vector<PlanStep> prefill;
    auto perLayer = [&](PlanStep s) {
        s.repeatLayer = L;
        s.coordLayer = true;
        return s;
    };

    LayerGraphParams gp;
    gp.batch = opts.batch;
    gp.seq = opts.promptLength;
    gp.tensorParallel = tp;
    gp.precision = opts.precision;
    gp.training = false;
    gp.flashAttention = opts.flashAttention;
    for (const Op &op : layerForwardOps(cfg, gp))
        prefill.push_back(perLayer(opStep(op, "prefill")));

    if (tp > 1)
        prefill.push_back(perLayer(commStep(
            "prefill/comm", "tp-allreduce", "prefill-comm", "prefill",
            CollectiveKind::AllReduce, prompt_bytes, tp,
            groupScopeFor(sys, tp), opts.collectiveAlgorithm, 2.0)));

    // First sampled token: the LM head runs once on the last position.
    for (const Op &op : headOps(cfg, opts.batch, tp, opts.precision))
        prefill.push_back(opStep(op, "prefill"));

    // One activation hop per pipeline boundary for the prefill pass.
    if (pp > 1)
        prefill.push_back(commStep(
            "prefill/comm", "pp-hops", "prefill-comm", "prefill",
            CollectiveKind::PointToPoint, prompt_bytes, 2,
            groupScopeFor(sys, tp * pp), CollectiveAlgorithm::Auto,
            double(pp - 1)));

    kp.steps.insert(kp.steps.begin(),
                    std::make_move_iterator(prefill.begin()),
                    std::make_move_iterator(prefill.end()));
    return kp;
}

} // namespace plan
} // namespace optimus
