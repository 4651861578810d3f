#include "inference/engine.h"

#include <algorithm>

#include "memory/kv_cache.h"
#include "plan/plan.h"
#include "workload/graph.h"

namespace optimus {

// The whole evaluation lives in the plan pipeline (plan/plan.h):
// lowerInference builds the step list (one decode range step per op),
// evaluatePlan runs the roofline and collective models, foldInference
// produces the PhaseReports and the trace spans, and runInference
// adds the KV-cache / weight footprint tail. This function is only
// the historical entry point.
InferenceReport
evaluateInference(const TransformerConfig &cfg, const System &sys,
                  const InferenceOptions &opts)
{
    return plan::runInference(cfg, sys, opts).report;
}

InferenceMemory
inferenceMemory(const TransformerConfig &cfg, const InferenceOptions &opts)
{
    InferenceMemory mem;
    mem.weights = modelWeightBytes(cfg, opts.precision);
    mem.kvCache =
        kvCacheBytes(cfg, opts.batch, opts.promptLength + opts.generateLength,
                     opts.kvPrecision);
    mem.perDevice = (mem.weights + mem.kvCache) /
                    double(opts.tensorParallel * opts.pipelineParallel);
    return mem;
}

namespace {

std::vector<GemmBoundRow>
gemmTable(const Device &dev, const std::vector<Op> &ops,
          long long heads_local)
{
    std::vector<GemmBoundRow> rows;
    for (const Op &op : ops) {
        if (op.kind != OpKind::Gemm)
            continue;
        Op single = op;
        // Attention-score GEMMs are reported per single head.
        bool per_head = (op.name == "qk^T" || op.name == "attn-v") &&
                        heads_local > 0;
        if (per_head) {
            single.count = std::max<long long>(
                1, op.count / heads_local);
            single.launchCount = 1;
        }
        KernelEstimate est = evaluateOp(dev, single);
        GemmBoundRow row;
        row.name = per_head ? "single-head " + op.name : op.name;
        row.time = est.time;
        row.boundType = est.boundName(dev);
        row.flops = est.flops;
        row.dramBytes = est.bytesPerLevel.empty() ? 0.0
                                                  : est.bytesPerLevel[0];
        rows.push_back(row);
    }
    return rows;
}

} // namespace

std::vector<GemmBoundRow>
prefillGemmTable(const Device &dev, const TransformerConfig &cfg,
                 const InferenceOptions &opts)
{
    LayerGraphParams gp;
    gp.batch = opts.batch;
    gp.seq = opts.promptLength;
    gp.tensorParallel = opts.tensorParallel;
    gp.precision = opts.precision;
    gp.training = false;
    long long heads_local = cfg.numHeads / opts.tensorParallel;
    return gemmTable(dev, layerForwardOps(cfg, gp), heads_local);
}

std::vector<GemmBoundRow>
decodeGemmTable(const Device &dev, const TransformerConfig &cfg,
                const InferenceOptions &opts, long long context)
{
    long long heads_local = cfg.numHeads / opts.tensorParallel;
    return gemmTable(dev,
                     decodeLayerOps(cfg, opts.batch, context,
                                    opts.tensorParallel,
                                    opts.precision, opts.kvPrecision),
                     heads_local);
}

} // namespace optimus
