/**
 * @file
 * train_sweep: each call is one planTraining problem keeping the full
 * ranked list -- the Sec. 5.1 planner sweep users run. Most of its
 * host time is plan evaluation, and it keeps the tile cache hot.
 *
 * Every problem searches microbatch {1, 2} x ZeRO {0, 1}. The
 * population is stratified so its cost mix barely moves with the seed:
 * every (model, system, power-of-two node count in the model's range)
 * problem appears once. The seed draws the global batch (2, 4 or 8
 * sequences per device, so no mapping is pruned for batch size) and
 * which half of the problems use FlashAttention.
 */

#include <limits>

#include "replay.h"
#include "workloads.h"

namespace bench {

using namespace optimus;

namespace {

struct ModelRange
{
    const char *name;
    int minNodes;  ///< smallest power-of-two node count swept
    int maxNodes;
};

const std::vector<ModelRange> kModels = {
    {"gpt-7b", 1, 8},        {"gpt-22b", 1, 16},
    {"gpt-175b", 4, 64},     {"gpt-310b", 8, 64},
    {"gpt-530b", 16, 64},    {"gpt-1008b", 32, 64},
    {"llama2-7b", 1, 8},     {"llama2-13b", 1, 16},
    {"llama2-70b", 2, 32},   {"llama3-8b", 1, 8},
    {"llama3-70b", 2, 32},   {"llama3-405b", 8, 64},
    {"mixtral-8x7b", 1, 16},
};

const std::vector<std::string> kSystems = {"dgx-a100", "dgx-h100",
                                           "dgx-b200"};

struct Problem
{
    std::string model;
    std::string system;
    int nodes = 1;
    long long batch = 512;
    bool flash = false;
};

TrainingPlannerOptions
plannerOptions(const Problem &p)
{
    TrainingPlannerOptions o;
    o.flashAttention = p.flash;
    o.microbatchSizes = {1, 2};
    o.zeroStages = {0, 1};
    o.keep = std::numeric_limits<size_t>::max();
    o.threads = 1;
    return o;
}

/** Gate the ranked list and flatten it into predictions. */
Predictions
rankedPredictions(const std::vector<TrainingPlan> &plans,
                  const System &sys)
{
    Predictions out;
    double prev = 0.0;
    for (const TrainingPlan &p : plans) {
        Predictions r = checkTraining(p.report);
        require(p.report.timePerBatch >= prev,
                "plans are not ranked fastest first");
        prev = p.report.timePerBatch;
        require(p.report.memory.total() <= sys.device.dram().capacity,
                "a ranked plan overflows device memory");
        const ParallelConfig &par = p.parallel;
        out.insert(out.end(),
                   {double(par.dataParallel), double(par.tensorParallel),
                    double(par.pipelineParallel),
                    double(par.microbatchSize),
                    double(par.interleavedStages),
                    par.sequenceParallel ? 1.0 : 0.0,
                    double(static_cast<int>(p.options.recompute)),
                    double(p.options.memory.zeroStage)});
        out.insert(out.end(), r.begin(), r.end());
    }
    return out;
}

double
stageMs(Layers &layers)
{
    return layers["plan.lower.ms"] + layers["plan.evaluate.ms"] +
           layers["plan.fold.ms"] + layers["memory.ms"];
}

/**
 * planTraining with its TraceSession counters, then every ranked plan
 * replayed stage by stage. The replays are measurement-only; the
 * planner's own time is planTraining minus those stage times.
 */
Predictions
replayProblem(const Problem &p, Layers &layers)
{
    TransformerConfig model = config::modelPreset(p.model);
    System sys = config::systemPreset(p.system, p.nodes);
    TraceSession session;
    TrainingPlannerOptions opts = plannerOptions(p);
    opts.trace = &session;

    Clock::time_point t0 = Clock::now();
    std::vector<TrainingPlan> plans =
        planTraining(model, sys, p.batch, opts);
    const double planner_ms = msSince(t0);

    layers["planner.mappings"] +=
        session.counter("planner/mappings-enumerated");
    layers["planner.pruned_illegal"] +=
        session.counter("planner/pruned-illegal");
    layers["planner.pruned_memory"] +=
        session.counter("planner/pruned-memory");
    layers["planner.plans_evaluated"] +=
        session.counter("planner/plans-evaluated");
    require(session.counter("planner/plans-evaluated") ==
                double(plans.size()),
            "planner returned a different number of plans than it "
            "evaluated");

    const double extra0 = layers.extraMs;
    const double stages0 = stageMs(layers);
    Clock::time_point r0 = Clock::now();
    for (const TrainingPlan &plan : plans) {
        Replayed r = replayTraining(model, sys, plan.parallel, p.batch,
                                    plan.options, layers);
        near(r.total(), plan.report.timePerBatch, 1e-9,
             "foldTraining total differs from the planner's "
             "evaluateTraining");
    }
    layers.extraMs = extra0 + msSince(r0);
    layers["planner.self_ms"] += planner_ms - (stageMs(layers) - stages0);
    return rankedPredictions(plans, sys);
}

Call
makeCall(const Problem &p)
{
    Call c;
    c.kind = "planTraining";
    c.input = describe(p.model, p.system, p.nodes);
    c.input.set("batch", JsonValue::number(double(p.batch)));
    c.input.set("flash", JsonValue::boolean(p.flash));
    c.run = [p] {
        System sys = config::systemPreset(p.system, p.nodes);
        return rankedPredictions(
            planTraining(config::modelPreset(p.model), sys, p.batch,
                         plannerOptions(p)),
            sys);
    };
    c.replay = [p](Layers &layers) { return replayProblem(p, layers); };
    return c;
}

} // namespace

std::vector<Call>
trainSweep(uint64_t seed)
{
    Rng rng(seed);
    std::vector<Call> calls;
    for (const ModelRange &m : kModels) {
        long long flash_slot = rng.range(0, 1);
        for (const std::string &sys : kSystems) {
            for (int n = m.minNodes; n <= m.maxNodes; n *= 2) {
                Problem p;
                p.model = m.name;
                p.system = sys;
                p.nodes = n;
                p.batch = 8LL * n * rng.pick<long long>({2, 4, 8});
                p.flash = flash_slot++ % 2 == 1;
                calls.push_back(makeCall(p));
            }
        }
    }
    return calls;
}

} // namespace bench
