/**
 * @file
 * The single folder: derives every downstream artifact — breakdown
 * aggregates, trace spans, per-kernel RunRecord aggregates — from one
 * evaluated plan via one shared span-stream walker, so the trace
 * invariant (per-category span sums reproduce the aggregate report)
 * holds by construction.
 */

#include "plan/plan.h"

#include <map>

#include "trace/trace.h"
#include "util/error.h"

namespace optimus {
namespace plan {

namespace {

/**
 * A span carrying the full kernel detail of @p est: duration, FLOPs,
 * DRAM traffic, launch overhead and the canonical bound name
 * (boundLevelName, shared with Table 4 / roofline reports).
 */
TraceSpan
kernelSpan(const Device &dev, const std::string &name,
           const std::string &category, const KernelEstimate &est)
{
    TraceSpan s;
    s.name = name;
    s.category = category;
    s.duration = est.time;
    s.flops = est.flops;
    s.dramBytes = est.bytesPerLevel.empty() ? 0.0 : est.bytesPerLevel[0];
    s.overhead = est.overhead;
    s.bound = boundLevelName(dev, est.boundLevel);
    return s;
}

/**
 * Instance span of step @p i (coordinates stamped by the caller) at
 * decode token @p token (-1 outside a range). A span-bound range step
 * takes the token's own estimate and bucket: the stored detail
 * estimate, or a fresh one when the plan was evaluated without detail.
 */
TraceSpan
instanceSpan(const EvaluatedPlan &ep, size_t i, long long token)
{
    const PlanStep &st = ep.plan.steps[i];
    const StepEval &ev = ep.evals[i];
    if (!st.kernelStep) {
        TraceSpan s;
        s.name = st.name;
        s.category = ev.category;
        s.duration = ev.perInstance;
        return s;
    }
    if (token < 0 || !bindsSpan(st))
        return kernelSpan(ep.dev, st.name, ev.category, ev.partEsts[0]);
    auto span = [&](const KernelEstimate &est) {
        BoundBucket b = boundBucket(st.parts[0].ops[0], est.boundLevel);
        return kernelSpan(ep.dev, st.name, bucketCategory(st.phase, b),
                          est);
    };
    if (ev.tokenEsts.empty())
        return span(evaluateOp(ep.dev, tokenOp(st, token)));
    return span(ev.tokenEsts[size_t(token)]);
}

/**
 * The spans of step @p i at decode token @p token (-1 outside a
 * range): first its per-op kernel-detail spans (detailLane), then its
 * instance spans in microbatch-major, layer-inner order (or one
 * layer-aggregated span per microbatch).
 */
template <typename Fn>
void
stepSpans(const EvaluatedPlan &ep, size_t i, long long token, Fn &fn)
{
    const PlanStep &st = ep.plan.steps[i];
    const StepEval &ev = ep.evals[i];

    if (!st.detailLane.empty() && !ev.opEsts.empty()) {
        const std::vector<Op> &ops = st.parts[0].ops;
        for (size_t j = 0; j < ops.size(); ++j) {
            TraceSpan s =
                kernelSpan(ep.dev, ops[j].name, "kernel", ev.opEsts[j]);
            s.microbatch = 0;
            s.layer = 0;
            fn(st.detailLane, std::move(s));
        }
    }

    if (st.kind == StepKind::Synthetic) {
        // The bubble span is suppressed when the schedule has no
        // bubble (pp == 1); the optimizer span always appears.
        if (st.synthetic == SyntheticKind::Bubble && !(ev.total > 0.0))
            return;
        TraceSpan s;
        s.name = st.name;
        s.category = ev.category;
        s.duration = ev.total;
        fn(st.lane, std::move(s));
        return;
    }

    for (long long mb = 0; mb < st.repeatMicrobatch; ++mb) {
        if (st.aggregateLayers) {
            TraceSpan s = instanceSpan(ep, i, token);
            const double rl = double(st.repeatLayer);
            s.duration *= rl;
            if (s.isKernel()) {
                s.flops *= rl;
                s.dramBytes *= rl;
                s.overhead *= rl;
            }
            if (st.coordMicrobatch)
                s.microbatch = mb;
            s.step = token;
            fn(st.lane, std::move(s));
            continue;
        }
        for (long long l = 0; l < st.repeatLayer; ++l) {
            TraceSpan s = instanceSpan(ep, i, token);
            if (st.coordMicrobatch)
                s.microbatch = mb;
            if (st.coordLayer)
                s.layer = l;
            s.step = token;
            fn(st.lane, std::move(s));
        }
    }
}

/**
 * Walk the deterministic span stream of an evaluated plan, step by
 * step. A run of consecutive range steps expands token-major (every
 * step of token 0, then every step of token 1, ...), the order of a
 * per-(token, op) plan. @p fn receives (lane name, span).
 */
template <typename Fn>
void
forEachStepSpan(const EvaluatedPlan &ep, Fn &&fn)
{
    const std::vector<PlanStep> &steps = ep.plan.steps;
    for (size_t i = 0; i < steps.size();) {
        const long long tokens = steps[i].tokens;
        if (tokens == 0) {
            stepSpans(ep, i, -1, fn);
            ++i;
            continue;
        }
        size_t end = i;
        while (end < steps.size() && steps[end].tokens == tokens)
            ++end;
        for (long long t = 0; t < tokens; ++t)
            for (size_t k = i; k < end; ++k)
                stepSpans(ep, k, t, fn);
        i = end;
    }
}

/** Emit the full span stream (lanes and counters first) into @p tr. */
void
emitTrace(const EvaluatedPlan &ep, TraceSession &tr)
{
    std::map<std::string, int> lane_ids;
    for (const std::string &name : ep.plan.lanes)
        lane_ids[name] = tr.lane(name);
    for (const auto &kv : ep.plan.counters)
        tr.counterAdd(kv.first, kv.second);
    forEachStepSpan(ep, [&](const std::string &lane, TraceSpan s) {
        auto it = lane_ids.find(lane);
        if (it == lane_ids.end())
            it = lane_ids.emplace(lane, tr.lane(lane)).first;
        tr.emit(it->second, std::move(s));
    });
}

/** TrainingBreakdown field addressed by a category name. */
double *
breakdownField(TrainingBreakdown &t, const std::string &category)
{
    if (category == "forward") return &t.forward;
    if (category == "backward") return &t.backward;
    if (category == "recompute") return &t.recompute;
    if (category == "embedding") return &t.embedding;
    if (category == "tp-comm") return &t.tpComm;
    if (category == "cp-comm") return &t.cpComm;
    if (category == "ep-comm") return &t.epComm;
    if (category == "pp-comm") return &t.ppComm;
    if (category == "dp-comm") return &t.dpComm;
    if (category == "bubble") return &t.bubble;
    if (category == "optimizer") return &t.optimizer;
    return nullptr;
}

} // namespace

FoldedTraining
foldTraining(const EvaluatedPlan &ep, TraceSession *trace)
{
    FoldedTraining f;
    for (size_t i = 0; i < ep.plan.steps.size(); ++i) {
        const PlanStep &st = ep.plan.steps[i];
        const StepEval &ev = ep.evals[i];
        double *field = breakdownField(f.time, ev.category);
        if (field == nullptr)
            throw ConfigError("training plan step '" + st.name +
                              "' has unknown category '" + ev.category +
                              "'");
        *field += ev.total;
        if (st.kind == StepKind::Compute && !ev.partEsts.empty()) {
            if (st.name == "layer-fwd")
                f.layerForward = ev.partEsts[0];
            else if (st.name == "layer-bwd")
                f.layerBackward = ev.partEsts[0];
        }
    }
    if (tracing(trace))
        emitTrace(ep, *trace);
    return f;
}

FoldedInference
foldInference(const EvaluatedPlan &ep, TraceSession *trace)
{
    FoldedInference f;
    for (size_t i = 0; i < ep.plan.steps.size(); ++i) {
        const PlanStep &st = ep.plan.steps[i];
        const StepEval &ev = ep.evals[i];
        PhaseReport &r =
            (st.phase == "decode") ? f.decode : f.prefill;
        if (st.kind == StepKind::Compute) {
            r.time += ev.total;
            r.overheadTime += ev.overhead;
            r.memoryTime += ev.memoryTime;
            // Bound-type buckets include each kernel's launch
            // overhead, as in the paper's per-kernel accounting (a
            // 3 us per-head attention kernel counts as memory-bound
            // time even though its cost is launch-dominated).
            r.computeBoundGemmTime +=
                ev.bucketTime[size_t(BoundBucket::GemmCompute)];
            r.memoryBoundGemmTime +=
                ev.bucketTime[size_t(BoundBucket::GemmMemory)];
            r.otherKernelTime +=
                ev.bucketTime[size_t(BoundBucket::Other)];
        } else if (st.kind == StepKind::Collective) {
            r.commTime += ev.total;
            r.time += ev.total;
        }
    }
    if (tracing(trace))
        emitTrace(ep, *trace);
    return f;
}

std::vector<KernelAggregate>
kernelAggregates(const EvaluatedPlan &ep)
{
    struct Agg
    {
        KernelAggregate a;
        std::map<std::string, double> boundTime;
    };
    std::map<std::string, Agg> by_key;
    forEachStepSpan(ep, [&by_key](const std::string &lane,
                                  const TraceSpan &s) {
        if (!s.isKernel())
            return;
        const std::string key = lane + "/" + s.name;
        Agg &g = by_key[key];
        if (g.a.count == 0) {
            g.a.key = key;
            g.a.category = s.category;
        }
        ++g.a.count;
        g.a.time += s.duration;
        g.a.flops += s.flops;
        g.a.dramBytes += s.dramBytes;
        g.a.overhead += s.overhead;
        g.boundTime[s.bound] += s.duration;
    });

    std::vector<KernelAggregate> out;
    out.reserve(by_key.size());
    for (auto &kv : by_key) {
        // A kernel whose bound class varies within the run (e.g. a
        // decode GEMV flipping DRAM -> L2 as the context grows) is
        // labeled by its time-dominant class; ties break
        // lexicographically so the label is deterministic.
        Agg &g = kv.second;
        double best = -1.0;
        for (const auto &bt : g.boundTime)
            if (bt.second > best) {
                best = bt.second;
                g.a.bound = bt.first;
            }
        out.push_back(std::move(g.a));
    }
    return out;
}

} // namespace plan
} // namespace optimus
