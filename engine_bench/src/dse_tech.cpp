/**
 * @file
 * dse_tech: each call is one optimizeAllocation search at one corner
 * of the Fig. 6 grid (logic node N12..N1 x dram::trainingSweep()) with
 * the Fig. 6 training objective, plus fourteen Fig. 9-style
 * short-generation inference objectives. The harness clears the tile
 * cache before every call: a DSE user pays a cold search, and every
 * probe is a new device, so this is the tile cache's cold side
 * (train_sweep is its hot side).
 *
 * The grid itself is fixed. The inference objectives cover every node
 * at TP 2 and TP 8 with fixed generation-length steps (8..35 tokens).
 * The seed draws the inter-node network of each training corner, where
 * the inference corners start cycling through the Fig. 9 DRAM
 * generations, and a one-token jitter, so the cost mix barely moves
 * with the seed.
 */

#include "workloads.h"

namespace bench {

using namespace optimus;

namespace {

constexpr int kInferenceCorners = 14;

DseOptions
searchOptions()
{
    // The Fig. 6 bench's search budget, single-threaded.
    DseOptions o;
    o.gridSteps = 3;
    o.refineRounds = 10;
    o.threads = 1;
    return o;
}

struct Corner
{
    std::string node;
    DramTech dram;
    bool training = true;
    NetworkLink inter;           ///< training objective only
    long long tp = 8;            ///< inference objective only
    long long generate = 16;     ///< inference objective only
};

/** Fig. 6: GPT-7B on 1024 GPUs, Table 3 mapping 64-4-4-4. */
double
trainTime(const Device &dev, const NetworkLink &inter)
{
    System sys = makeSystem(dev, 8, 128, presets::nvlink4(), inter);
    ParallelConfig par;
    par.dataParallel = 64;
    par.tensorParallel = 4;
    par.pipelineParallel = 4;
    par.sequenceParallel = true;
    par.schedule = PipelineSchedule::Interleaved1F1B;
    par.interleavedStages = 8;
    TrainingOptions opts;
    opts.recompute = Recompute::Selective;
    return checkTraining(
               evaluateTraining(models::gpt7b(), sys, par, 512, opts))
        .front();
}

/** Fig. 9 shape: Llama-2-13B, B=1, 200-token prompt, short generation. */
double
inferTime(const Device &dev, long long tp, long long generate)
{
    System sys = makeSystem(dev, 8, 1, presets::nvlink3(),
                            presets::ndrInfiniBand());
    InferenceOptions opts;
    opts.tensorParallel = tp;
    opts.promptLength = 200;
    opts.generateLength = generate;
    return checkInference(
               evaluateInference(models::llama2_13b(), sys, opts))
        .back();
}

DeviceObjective
objectiveFor(const Corner &c)
{
    if (c.training)
        return [c](const Device &dev) { return trainTime(dev, c.inter); };
    return [c](const Device &dev) {
        return inferTime(dev, c.tp, c.generate);
    };
}

Predictions
search(const Corner &c, const DeviceObjective &objective,
       TraceSession *trace)
{
    TechConfig tech;
    tech.node = logicNode(c.node);
    tech.dram = c.dram;
    DseOptions opts = searchOptions();
    opts.trace = trace;
    DseResult r = optimizeAllocation(tech, objective, opts);

    positive(r.objective, "DSE objective");
    require(r.evaluations > 0, "DSE made no evaluations");
    const UArchAllocation &a = r.allocation;
    require(a.computeAreaFraction > 0.0 && a.computeAreaFraction < 1.0 &&
                a.computePowerFraction > 0.0 &&
                a.computePowerFraction < 1.0,
            "DSE allocation outside (0, 1)");
    return {a.computeAreaFraction, a.computePowerFraction, r.objective,
            double(r.evaluations)};
}

/** The returned objective must be the objective of the returned device. */
void
checkOptimum(const Corner &c, const Predictions &p)
{
    TechConfig tech;
    tech.node = logicNode(c.node);
    tech.dram = c.dram;
    UArchAllocation a;
    a.computeAreaFraction = p[0];
    a.computePowerFraction = p[1];
    near(objectiveFor(c)(buildDevice(tech, a)), p[2], 1e-9,
         "DSE objective differs from a re-evaluation of its optimum");
}

Call
makeCall(const Corner &c)
{
    Call call;
    call.kind = c.training ? "dse/train" : "dse/infer";
    call.input = JsonValue::object();
    call.input.set("node", JsonValue::string(c.node));
    call.input.set("dram", JsonValue::string(c.dram.name));
    if (c.training) {
        call.input.set("inter", JsonValue::string(c.inter.name));
    } else {
        call.input.set("tp", JsonValue::number(double(c.tp)));
        call.input.set("generate", JsonValue::number(double(c.generate)));
    }
    call.run = [c] {
        Predictions p = search(c, objectiveFor(c), nullptr);
        checkOptimum(c, p);
        return p;
    };
    call.replay = [c](Layers &layers) {
        const DeviceObjective inner = objectiveFor(c);
        double objective_ms = 0.0;
        DeviceObjective timed_objective = [&](const Device &dev) {
            Clock::time_point t0 = Clock::now();
            double v = inner(dev);
            objective_ms += msSince(t0);
            return v;
        };
        TraceSession session;
        Clock::time_point t0 = Clock::now();
        Predictions p = search(c, timed_objective, &session);
        const double total_ms = msSince(t0);
        require(session.counter("dse/evaluations") == p[3],
                "dse/evaluations counter differs from the result");
        layers["dse.evaluations"] += p[3];
        layers["dse.objective_ms"] += objective_ms;
        layers["dse.self_ms"] += total_ms - objective_ms;
        checkOptimum(c, p);
        return p;
    };
    return call;
}

} // namespace

std::vector<Call>
dseTech(uint64_t seed)
{
    Rng rng(seed);
    std::vector<Call> calls;
    for (const LogicNode &node : logicNodes()) {
        for (const DramTech &d : dram::trainingSweep()) {
            Corner c;
            c.node = node.name;
            c.dram = d;
            c.inter = rng.pick(nettech::scalingSweep());
            calls.push_back(makeCall(c));
        }
    }
    const std::vector<DramTech> &drams = dram::inferenceSweep();
    size_t dram_slot = static_cast<size_t>(rng.range(0, 5));
    for (int k = 0; k < kInferenceCorners; ++k) {
        Corner c;
        c.training = false;
        c.node = logicNodes()[static_cast<size_t>(k / 2)].name;
        c.dram = drams[dram_slot++ % drams.size()];
        c.tp = k % 2 ? 8 : 2;
        c.generate = 8 + 2 * k + rng.range(0, 1);
        calls.push_back(makeCall(c));
    }
    return calls;
}

} // namespace bench
