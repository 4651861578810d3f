/**
 * @file
 * The kernel-plan IR: one lowering pass, one evaluator, one folder.
 *
 * The paper's core abstraction is a single pipeline — (model, system,
 * mapping) -> per-kernel roofline estimates -> folded time/memory/
 * bound reports — and this module is that pipeline made explicit.
 * `lowerTraining` / `lowerInference` / `lowerDecode` turn a
 * configuration into a flat, deterministic KernelPlan: an ordered
 * list of PlanSteps (compute op lists, collectives with an explicit
 * GroupScope, and synthetic steps for the pipeline bubble and the
 * optimizer), each tagged with a stable identity (lane/name), phase,
 * repeat counts and breakdown category. Decode lowers to one *range
 * step* per op covering every generated token, so a plan's size does
 * not grow with the generation length. `evaluatePlan` maps every step
 * through the existing roofline and collective models, and the
 * folders derive *all* downstream artifacts from that one evaluated
 * stream:
 *
 *  - `foldTraining` / `foldInference` produce the TrainingBreakdown /
 *    PhaseReport aggregates and, when a TraceSession is supplied, the
 *    trace spans whose per-category sums reproduce them;
 *  - `kernelAggregates` produces the per-identity RunRecord kernel
 *    rows (report/record.h) from the same span stream;
 *  - `summarizePlan` / `planJson` / `planCsv` expose the plan itself
 *    (the `optimus_cli kernels` subcommand).
 *
 * evaluateTraining / evaluateInference are thin drivers over
 * runTraining / runInference (lower -> evaluate -> fold plus the
 * memory/MFU/latency tails); they contain no per-op folding of their
 * own. See docs/ARCHITECTURE.md.
 */

#ifndef OPTIMUS_PLAN_PLAN_H
#define OPTIMUS_PLAN_PLAN_H

#include <array>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "comm/collective.h"
#include "hw/system.h"
#include "inference/engine.h"
#include "training/trainer.h"
#include "util/json.h"
#include "workload/graph.h"

namespace optimus {

class TraceSession;

namespace plan {

/** What a PlanStep models. */
enum class StepKind {
    Compute,     ///< one or more op lists through the roofline engines
    Collective,  ///< a communication collective (comm/collective.h)
    Synthetic,   ///< derived time: pipeline bubble, optimizer step
};

/** Synthetic step flavors. */
enum class SyntheticKind {
    Bubble,     ///< busy-so-far * bubbleFraction (value = fraction)
    Optimizer,  ///< value bytes / DRAM effective bandwidth
};

/** How a multi-part compute step combines its parts. */
enum class PartCombine {
    Sum,  ///< parts execute back to back
    Max,  ///< parts live on different pipeline stages; worst one counts
};

/** The inference PhaseReport buckets of a kernel step. */
enum class BoundBucket {
    GemmCompute,  ///< GEMM-like op bound by arithmetic throughput
    GemmMemory,   ///< GEMM-like op bound by a memory level
    Other,        ///< every other op (norms, softmax, elementwise)
};

/**
 * An op list read like a const std::vector<Op>: either a list of its
 * own, or one shared with other parts without a copy (the plans bound
 * to one LayerPart share its lists, and the recompute step shares the
 * forward list).
 */
class OpList
{
  public:
    OpList() = default;
    /** A list of its own. */
    OpList(std::vector<Op> ops) : own_(std::move(ops)) {}
    /** A list shared with its other holders. */
    explicit OpList(std::shared_ptr<const std::vector<Op>> ops)
        : shared_(std::move(ops))
    {}

    const std::vector<Op> &list() const { return shared_ ? *shared_ : own_; }
    operator const std::vector<Op> &() const { return list(); }
    size_t size() const { return list().size(); }
    const Op &operator[](size_t i) const { return list()[i]; }
    std::vector<Op>::const_iterator begin() const { return list().begin(); }
    std::vector<Op>::const_iterator end() const { return list().end(); }

  private:
    std::vector<Op> own_;
    std::shared_ptr<const std::vector<Op>> shared_;
};

/** One op list inside a compute step, with a time scale factor. */
struct ComputePart
{
    std::string label;    ///< evaluateOps label for multi-op lists
    OpList ops;
    double scale = 1.0;   ///< e.g. recompute fraction, fwd+bwd factor
    /**
     * The unscaled estimate of ops on the plan's device when a
     * LayerPart already holds it: evaluatePlan then reads it instead
     * of evaluating ops again. Null for every other part.
     */
    std::shared_ptr<const KernelEstimate> estimate;
};

/**
 * One step of a lowered plan. The identity (lane, name) is stable
 * across runs of the same configuration — it is the key the diff
 * engine and the trace lanes agree on.
 */
struct PlanStep
{
    StepKind kind = StepKind::Compute;
    std::string lane;      ///< trace lane, e.g. "stage0/comm"
    std::string name;      ///< event label, e.g. "tp-allreduce"
    /** Breakdown category; empty for kernel steps. */
    std::string category;
    std::string phase;     ///< "train" | "prefill" | "decode"

    /**
     * A single-op kernel step: its instance spans carry full kernel
     * detail, and its category resolves from the evaluated bound as
     * phase + "-" + {gemm-compute | gemm-memory | other} (the
     * inference PhaseReport buckets).
     */
    bool kernelStep = false;

    // ---- Repeat structure -------------------------------------------
    long long repeatMicrobatch = 1;
    long long repeatLayer = 1;
    bool coordMicrobatch = false;  ///< stamp span.microbatch
    bool coordLayer = false;       ///< stamp span.layer
    /**
     * Emit one span covering all repeatLayer instances (duration,
     * FLOPs and traffic scaled by repeatLayer) instead of one span per
     * layer — the decode-lane aggregation.
     */
    bool aggregateLayers = false;

    // ---- Decode token range -----------------------------------------
    /**
     * Generated tokens this range step stands for (0: not a range
     * step). Token t (span.step = t) runs at context contextStart + t
     * with its own microbatch x layer instances. A single-op step whose
     * op binds the attended span (Op::spanDim, see bindsSpan) is
     * rebound per token; every other range step is the same for all
     * tokens. Consecutive range steps expand token-major in the span
     * stream: all of token 0, then all of token 1, ...
     */
    long long tokens = 0;
    long long contextStart = 0;  ///< context length of token 0
    /**
     * Attended span of the last token: a sliding window caps every
     * token's span (TransformerConfig::attentionSpan), so token t
     * attends over min(contextStart + t, spanCap) positions.
     */
    long long spanCap = 0;

    /** Instances: repeatMicrobatch x repeatLayer x tokens. */
    long long instances() const
    {
        return repeatMicrobatch * repeatLayer *
               (tokens > 0 ? tokens : 1);
    }

    // ---- Kernel detail ----------------------------------------------
    /**
     * Additionally emit one per-op kernel-detail span (category
     * "kernel") per op of parts[0] on this lane (the trainer's
     * "kernels/fwd" lanes).
     */
    std::string detailLane;

    // ---- Compute payload --------------------------------------------
    std::vector<ComputePart> parts;
    PartCombine combine = PartCombine::Sum;

    // ---- Collective payload -----------------------------------------
    CollectiveKind collective = CollectiveKind::AllReduce;
    double volume = 0.0;       ///< bytes per call
    long long groupSize = 1;
    GroupScope scope = GroupScope::IntraNode;
    CollectiveAlgorithm algorithm = CollectiveAlgorithm::Auto;
    double callsPerInstance = 1.0;   ///< e.g. collectives per layer
    double exposedFraction = 1.0;    ///< 1 - overlapped fraction

    // ---- Synthetic payload ------------------------------------------
    SyntheticKind synthetic = SyntheticKind::Bubble;
    double syntheticValue = 0.0;     ///< fraction (Bubble) or bytes
};

/** A lowered, deterministic plan for one evaluation. */
struct KernelPlan
{
    std::string phase;  ///< "training" | "inference"
    std::vector<PlanStep> steps;
    /** Trace lanes in registration order (stable lane indices). */
    std::vector<std::string> lanes;
    /** counterAdd(name, value) pairs recorded before any span. */
    std::vector<std::pair<std::string, double>> counters;

    long long microbatches = 1;
    long long layersPerStage = 1;
    double bubbleFraction = 0.0;
};

/** Evaluator knobs. */
struct EvaluateOptions
{
    /**
     * Also evaluate per-op kernel detail (detailLane spans) and keep
     * the per-token estimates of span-bound range steps. The folders
     * force this on when a TraceSession is attached or when RunRecord
     * kernel aggregates are wanted.
     */
    bool detail = false;
};

/** Evaluation result of one step. */
struct StepEval
{
    /**
     * Seconds per instance (microbatch, layer, token); the mean over
     * tokens for a range step that binds the attended span.
     */
    double perInstance = 0.0;
    double total = 0.0;        ///< over all instances (or synthetic)
    /**
     * Resolved category (kernelStep buckets applied; the bucket of the
     * time-dominant bound for a span-bound range step).
     */
    std::string category;
    /**
     * One per ComputePart; for a span-bound range step, the estimate
     * of token 0 (the op as lowered).
     */
    std::vector<KernelEstimate> partEsts;
    std::vector<KernelEstimate> opEsts;    ///< per-op detail of parts[0]
    CollectiveResult coll;     ///< collective steps only

    // ---- Compute work over all instances ----------------------------
    // Under PartCombine::Max only the winning part's work is charged.
    double flops = 0.0;
    double dramBytes = 0.0;
    double overhead = 0.0;     ///< launch overhead
    double memoryTime = 0.0;   ///< DRAM-level transfer time
    /**
     * Bound level (KernelEstimate::boundLevel) of partEsts[0]; the
     * time-dominant one over the tokens of a span-bound range step.
     */
    int boundLevel = -1;
    /**
     * Bound-bucketed steps: seconds per BoundBucket. A span-bound
     * range step can split across buckets as the context grows.
     */
    std::array<double, 3> bucketTime{};
    /** Detail evaluations: per-token estimates of a span-bound step. */
    std::vector<KernelEstimate> tokenEsts;
};

/** A plan with every step evaluated on one system. */
struct EvaluatedPlan
{
    KernelPlan plan;
    std::vector<StepEval> evals;
    Device dev;  ///< the device the steps were evaluated on
};

// ---- Lower -----------------------------------------------------------

/**
 * The layer part of a training plan: what depends only on the layer
 * shape (LayerGraphParams: tp, sp, microbatch, with the model,
 * sequence length, precision, FlashAttention, EP and CP of one
 * problem), the activation bytes and the device. It holds one
 * layer's forward and backward op lists and the LM-head and
 * embedding parts, each with its per-instance estimate on the device.
 * Everything else in a training plan is the mapping part: repeat
 * counts, collectives, the embedding/head combine, the bubble, the
 * recompute scale and the optimizer step.
 *
 * lowerLayers builds one; lowerTraining binds a mapping of the same
 * (model, system) and layer shape to it. The parts' lists and
 * estimates are shared read-only by every plan bound to it, so a
 * caller with many mappings of one shape (the planner's (tp,
 * microbatch) groups) lowers and evaluates the layer once. There is no
 * key and no cache: the caller decides which mappings share a part.
 */
struct LayerPart
{
    LayerGraphParams shape;  ///< the layer shape the part was built for
    /** Bytes per activation element of the embedding stream. */
    double activationBytes = 0.0;
    ComputePart forward;     ///< "layer-fwd": one layer's forward ops
    ComputePart backward;    ///< "layer-bwd": derived from forward
    ComputePart head;        ///< LM head, scale 3 (forward + backward)
    ComputePart embedding;   ///< embedding stream, scale 2
};

/**
 * Lower and evaluate the layer part of a training configuration on
 * sys.device (validates its inputs as lowerTraining does).
 */
LayerPart lowerLayers(const TransformerConfig &cfg, const System &sys,
                      const ParallelConfig &par, long long global_batch,
                      const TrainingOptions &opts);

/**
 * Lower the mapping part of a training configuration around
 * @p layers, which must have been built by lowerLayers for the same
 * model and system and for the layer shape and activation bytes of
 * (par, opts) (validates its inputs; throws ConfigError when the shape
 * or the activation bytes differ).
 */
KernelPlan lowerTraining(const LayerPart &layers,
                         const TransformerConfig &cfg, const System &sys,
                         const ParallelConfig &par, long long global_batch,
                         const TrainingOptions &opts);

/**
 * Lower a training configuration (validates its inputs): the mapping
 * part around a layer part of its own. The compute steps carry their
 * layer estimates on sys.device, so a training plan is bound to the
 * system it was lowered for, as its collective scopes already are.
 */
KernelPlan lowerTraining(const TransformerConfig &cfg, const System &sys,
                         const ParallelConfig &par, long long global_batch,
                         const TrainingOptions &opts);

/**
 * Lower an inference configuration (validates its inputs): the
 * prefill steps followed by the lowerDecode steps.
 */
KernelPlan lowerInference(const TransformerConfig &cfg, const System &sys,
                          const InferenceOptions &opts);

/**
 * Lower only the decode phase of @p opts: generateLength tokens after
 * a promptLength-token prompt (0 allowed: the first token then runs at
 * context 1). A one-token plan folds to the decode step that serving
 * and speculative decoding charge.
 */
KernelPlan lowerDecode(const TransformerConfig &cfg, const System &sys,
                       const InferenceOptions &opts);

// ---- Evaluate --------------------------------------------------------

/** Map every step through the roofline / collective models. */
EvaluatedPlan evaluatePlan(KernelPlan plan, const System &sys,
                           const EvaluateOptions &opts = {});

/**
 * Unscaled estimate of one compute part: a single op goes through
 * evaluateOp directly (bit-identical to the per-kernel detail path),
 * a list through evaluateOps under the part's label.
 */
KernelEstimate evaluatePart(const Device &dev, const ComputePart &part);

/** True for a range step whose op binds the attended span. */
bool bindsSpan(const PlanStep &st);

/**
 * The op of range step @p st at token @p t: parts[0].ops[0] with its
 * span-bound dimension set to the token's attended span. The evaluator
 * sums evaluateOp over these for a span-bound step.
 */
Op tokenOp(const PlanStep &st, long long t);

/**
 * Bucket of @p op bound at @p bound_level (KernelEstimate::boundLevel)
 * in a kernel step.
 */
BoundBucket boundBucket(const Op &op, int bound_level);

/** Category of a kernel step: "<phase>-<bucket>". */
std::string bucketCategory(const std::string &phase, BoundBucket b);

// ---- Fold ------------------------------------------------------------

/** Training aggregates folded from an evaluated plan. */
struct FoldedTraining
{
    TrainingBreakdown time;
    KernelEstimate layerForward;   ///< "layer-fwd" step estimate
    KernelEstimate layerBackward;  ///< "layer-bwd" step estimate
};

/** Inference aggregates folded from an evaluated plan. */
struct FoldedInference
{
    PhaseReport prefill;
    PhaseReport decode;
};

/**
 * Fold a training plan into its breakdown; when @p trace is a live
 * session, also emit the full span stream (lanes registered in plan
 * order, counters first) whose per-category sums reproduce the
 * breakdown.
 */
FoldedTraining foldTraining(const EvaluatedPlan &ep, TraceSession *trace);

/** Inference analogue of foldTraining. */
FoldedInference foldInference(const EvaluatedPlan &ep,
                              TraceSession *trace);

/**
 * Aggregate of every kernel-detail span sharing one stable identity:
 * one RunRecord kernel row (report::KernelStat). The key is
 * "<lane>/<name>" (e.g. "kernels/fwd/qkT-gemm", "decode/attn-v"),
 * which is invariant across runs of the same config, so the diff
 * engine can match kernels between two records.
 */
struct KernelAggregate
{
    std::string key;
    std::string category;
    long long count = 0;      ///< spans folded into this aggregate
    double time = 0.0;        ///< summed modeled seconds
    double flops = 0.0;       ///< summed arithmetic work
    double dramBytes = 0.0;   ///< summed DRAM traffic
    double overhead = 0.0;    ///< summed launch overhead
    /** Time-dominant bound class ("compute", "DRAM", "L2", ...). */
    std::string bound;
};

/**
 * Per-identity kernel aggregates, sorted by key (requires a detail
 * evaluation).
 */
std::vector<KernelAggregate> kernelAggregates(const EvaluatedPlan &ep);

// ---- Drivers ---------------------------------------------------------

/** Result of a full training run over the plan pipeline. */
struct TrainingRun
{
    TrainingReport report;
    EvaluatedPlan plan;
};

/** Result of a full inference run over the plan pipeline. */
struct InferenceRun
{
    InferenceReport report;
    EvaluatedPlan plan;
};

/**
 * lower -> evaluate -> fold, plus the memory / model-FLOPs / MFU tail.
 * @p detail forces per-op kernel-detail evaluation (implied by an
 * attached trace session).
 */
TrainingRun runTraining(const TransformerConfig &cfg, const System &sys,
                        const ParallelConfig &par, long long global_batch,
                        const TrainingOptions &opts, bool detail = false);

/**
 * runTraining of a mapping bound to @p layers (see lowerTraining),
 * with the tail's inputs the caller already holds: @p memory is
 * trainingMemoryPerDevice of the mapping and @p model_flops is
 * modelFlopsPerBatch of the problem.
 */
TrainingRun runTraining(const LayerPart &layers,
                        const TransformerConfig &cfg, const System &sys,
                        const ParallelConfig &par, long long global_batch,
                        const TrainingOptions &opts,
                        const TrainingMemory &memory, double model_flops,
                        bool detail = false);

/**
 * Model FLOPs of one training batch (forward + backward, no
 * recompute) on the whole system: the MFU numerator, which no mapping
 * changes.
 */
double modelFlopsPerBatch(const TransformerConfig &cfg,
                          long long global_batch, long long seq,
                          Precision precision);

/** Inference analogue of runTraining (KV/weight footprint tail). */
InferenceRun runInference(const TransformerConfig &cfg, const System &sys,
                          const InferenceOptions &opts,
                          bool detail = false);

// ---- Plan export (optimus_cli kernels) -------------------------------

/** One row of the plan summary / JSON dump. */
struct StepSummary
{
    std::string lane;
    std::string name;
    std::string category;
    std::string kind;    ///< "compute" | "collective" | "synthetic"
    long long count = 1; ///< PlanStep::instances()
    double perInstance = 0.0;
    double total = 0.0;
    double flops = 0.0;      ///< across all instances
    double dramBytes = 0.0;  ///< across all instances
    double overhead = 0.0;   ///< across all instances
    /**
     * Time-dominant bound class (compute), scope (collective), or
     * empty.
     */
    std::string detail;
};

/** Summarize every step of an evaluated plan, in plan order. */
std::vector<StepSummary> summarizePlan(const EvaluatedPlan &ep);

/** Schema "optimus-kernel-plan" version 1 document. */
JsonValue planJson(const EvaluatedPlan &ep);

/** RFC-4180 CSV of the step summaries (header + one row per step). */
std::string planCsv(const EvaluatedPlan &ep);

} // namespace plan
} // namespace optimus

#endif // OPTIMUS_PLAN_PLAN_H
