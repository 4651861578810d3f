/**
 * @file
 * Command-line front end to the performance model.
 *
 * Subcommands:
 *   train    predict training time/memory for a model+system+mapping
 *   infer    predict inference latency
 *   memory   per-device training memory breakdown per recompute mode
 *   lint     static-check a config without evaluating it
 *   presets  list built-in device/system/model presets
 *
 * Inputs come from flags (preset names + mapping knobs) or from a
 * JSON config file (--config FILE) whose members are the objects
 * accepted by config/serialize.h. Add --json to emit the report as
 * JSON instead of text.
 *
 * Examples:
 *   optimus_cli train --model gpt-175b --system dgx-a100 --nodes 8 \
 *       --batch 64 --tp 8 --pp 8 --sp --recompute selective
 *   optimus_cli infer --model llama2-13b --system dgx-a100 --tp 1
 *   optimus_cli memory --model gpt-530b --tp 8 --pp 35 --batch 280
 */

#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/optimus.h"
#include "util/names.h"

using namespace optimus;

namespace {

using Args = Flags;

JsonValue
readConfigFile(const std::string &path)
{
    std::ifstream in(path);
    checkConfig(in.good(), "cannot open config file " + path);
    std::stringstream ss;
    ss << in.rdbuf();
    return JsonValue::parse(ss.str());
}

JsonValue
loadConfig(const Args &args)
{
    if (!args.has("config"))
        return JsonValue::object();
    return readConfigFile(args.get("config", ""));
}

/** The positional config operand, else --config FILE, else {}. */
JsonValue
loadConfigOperand(const Args &args)
{
    if (args.positionals().empty())
        return loadConfig(args);
    return readConfigFile(args.positionals().front());
}

TransformerConfig
resolveModel(const Args &args, const JsonValue &cfg)
{
    if (cfg.isObject() && cfg.has("model"))
        return config::modelFromJson(cfg.at("model"));
    return config::modelPreset(args.get("model", "gpt-175b"));
}

System
resolveSystem(const Args &args, const JsonValue &cfg)
{
    if (cfg.isObject() && cfg.has("system"))
        return config::systemFromJson(cfg.at("system"));
    return config::systemPreset(
        args.get("system", "dgx-a100"),
        static_cast<int>(args.getInt("nodes", 1)));
}

ParallelConfig
resolveParallel(const Args &args, const JsonValue &cfg)
{
    if (cfg.isObject() && cfg.has("parallel"))
        return config::parallelFromJson(cfg.at("parallel"));
    ParallelConfig par;
    par.dataParallel = args.getInt("dp", 1);
    par.tensorParallel = args.getInt("tp", 1);
    par.pipelineParallel = args.getInt("pp", 1);
    par.sequenceParallel = args.has("sp");
    par.microbatchSize = args.getInt("microbatch", 1);
    par.interleavedStages = args.getInt("interleave", 1);
    if (par.interleavedStages > 1)
        par.schedule = PipelineSchedule::Interleaved1F1B;
    return par;
}

Recompute
resolveRecompute(const Args &args)
{
    std::string name = args.get("recompute", "full");
    if (std::optional<Recompute> r = recomputeFromName(name))
        return *r;
    throw ConfigError("unknown --recompute value: " + name);
}

TrainingOptions
resolveTrainingOptions(const Args &args, const JsonValue &cfg)
{
    if (cfg.isObject() && cfg.has("training"))
        return config::trainingOptionsFromJson(cfg.at("training"));
    TrainingOptions opts;
    opts.recompute = resolveRecompute(args);
    opts.seqLength = args.getInt("seq", 2048);
    opts.precision = parsePrecision(args.get("precision", "fp16"));
    opts.flashAttention = args.has("flash-attention");
    opts.memory.flashAttention = opts.flashAttention;
    opts.memory.zeroStage = static_cast<int>(args.getInt("zero", 0));
    return opts;
}

InferenceOptions
resolveInferenceOptions(const Args &args, const JsonValue &cfg)
{
    if (cfg.isObject() && cfg.has("inference"))
        return config::inferenceOptionsFromJson(cfg.at("inference"));
    InferenceOptions opts;
    opts.tensorParallel = args.getInt("tp", 1);
    opts.pipelineParallel = args.getInt("pp", 1);
    opts.batch = args.getInt("batch", 1);
    opts.promptLength = args.getInt("prompt", 200);
    opts.generateLength = args.getInt("generate", 200);
    opts.precision = parsePrecision(args.get("precision", "fp16"));
    opts.flashAttention = args.has("flash-attention");
    return opts;
}

/** "infer" if the config has an inference section, else "train". */
std::string
configMode(const JsonValue &cfg)
{
    return (cfg.isObject() && cfg.has("inference")) ? "infer" : "train";
}

/** "infer" or "train": --mode, else what the config's sections imply. */
std::string
resolveMode(const Args &args, const JsonValue &cfg)
{
    return args.get("mode", configMode(cfg));
}

/** One single-point training or inference evaluation to run. */
struct Evaluation
{
    TransformerConfig model;
    System sys;
    bool infer = false;
    InferenceOptions inference;  ///< infer only
    ParallelConfig par;          ///< train only
    long long batch = 64;        ///< train only (global batch)
    TrainingOptions training;    ///< train only
};

Evaluation
resolveEvaluation(const Args &args, const JsonValue &cfg, bool infer)
{
    Evaluation ev;
    ev.model = resolveModel(args, cfg);
    ev.sys = resolveSystem(args, cfg);
    ev.infer = infer;
    if (infer) {
        ev.inference = resolveInferenceOptions(args, cfg);
        return ev;
    }
    ev.par = resolveParallel(args, cfg);
    // Convenience: fill the data-parallel degree from the system size
    // when the user gave only TP/PP.
    if (!args.has("dp") && !(cfg.isObject() && cfg.has("parallel"))) {
        long long rest = ev.par.tensorParallel * ev.par.pipelineParallel;
        if (ev.sys.totalDevices() % rest == 0)
            ev.par.dataParallel = ev.sys.totalDevices() / rest;
    }
    ev.batch = args.getInt("batch", 64);
    ev.training = resolveTrainingOptions(args, cfg);
    return ev;
}

/**
 * Lint @p ev before it is lowered: a LintError (a ConfigError naming
 * the failing rule IDs) when any rule errs; warnings are returned.
 */
lint::LintReport
refuseLintErrors(const Evaluation &ev)
{
    lint::LintReport report =
        ev.infer ? lint::lintInference(ev.model, ev.sys, ev.inference)
                 : lint::lintTraining(ev.model, ev.sys, ev.par,
                                      ev.batch, ev.training);
    lint::enforce(report);
    return report;
}

int
cmdTrain(const Args &args)
{
    Evaluation ev =
        resolveEvaluation(args, loadConfigOperand(args), false);
    const TransformerConfig &model = ev.model;
    const System &sys = ev.sys;
    const TrainingOptions &opts = ev.training;

    TrainingReport rep = evaluateTraining(model, sys, ev.par, ev.batch,
                                          opts);

    if (args.has("json")) {
        std::cout << config::toJson(rep).dump(2) << "\n";
        return 0;
    }

    std::cout << model.name << " on " << sys.totalDevices() << "x "
              << sys.device.name << " (" << ev.par.label()
              << ", batch " << ev.batch << ", "
              << recomputeName(opts.recompute) << " recompute)\n\n"
              << "  time/batch : " << formatTime(rep.timePerBatch)
              << "\n"
              << "  throughput : "
              << double(ev.batch) * opts.seqLength / rep.timePerBatch
              << " tokens/s\n"
              << "  MFU        : " << rep.mfu * 100.0 << " %\n"
              << "  compute    : " << formatTime(rep.time.compute())
              << "\n"
              << "  comm       : "
              << formatTime(rep.time.communication()) << "\n"
              << "  other      : " << formatTime(rep.time.other())
              << "\n"
              << "  memory/GPU : " << formatBytes(rep.memory.total())
              << (rep.memory.total() <= sys.device.dram().capacity
                      ? " (fits)"
                      : " (OVERFLOWS device memory)")
              << "\n";
    return 0;
}

int
cmdInfer(const Args &args)
{
    JsonValue cfg = loadConfig(args);
    TransformerConfig model = resolveModel(args, cfg);
    System sys = resolveSystem(args, cfg);

    InferenceOptions opts = resolveInferenceOptions(args, cfg);

    InferenceReport rep = evaluateInference(model, sys, opts);

    if (args.has("json")) {
        std::cout << config::toJson(rep).dump(2) << "\n";
        return 0;
    }

    double tokens = double(opts.batch) * opts.generateLength;
    std::cout << model.name << " on TP" << opts.tensorParallel << " "
              << sys.device.name << " (batch " << opts.batch << ", "
              << opts.promptLength << "+" << opts.generateLength
              << " tokens)\n\n"
              << "  total latency : " << formatTime(rep.totalLatency)
              << "\n"
              << "  prefill       : " << formatTime(rep.prefill.time)
              << "\n"
              << "  decode        : " << formatTime(rep.decode.time)
              << "  (" << rep.decode.time / tokens * 1e3 *
                             double(opts.batch)
              << " ms/token)\n"
              << "  decode comm   : "
              << formatTime(rep.decode.commTime) << "\n"
              << "  throughput    : " << tokens / rep.totalLatency
              << " tokens/s\n"
              << "  KV cache      : " << formatBytes(rep.kvCacheBytes)
              << ", weights " << formatBytes(rep.weightBytes)
              << (rep.fitsDeviceMemory ? " (fits)" : " (OVERFLOWS)")
              << "\n";
    return 0;
}

int
cmdServe(const Args &args)
{
    JsonValue cfg = loadConfig(args);
    TransformerConfig model = resolveModel(args, cfg);
    System sys = resolveSystem(args, cfg);

    ServingOptions opts;
    opts.tensorParallel = args.getInt("tp", 1);
    opts.promptLength = args.getInt("prompt", 512);
    opts.generateLength = args.getInt("generate", 256);
    opts.precision = parsePrecision(args.get("precision", "fp16"));

    Table out({"Batch", "tok/s", "req/s", "ms/token", "TTFT (ms)",
               "fits", "$/Mtok"});
    ServingCostModel cost;
    for (long long b = 1; b <= args.getInt("max-batch", 128);
         b *= 2) {
        ServingPoint pt = evaluateServingPoint(model, sys, opts, b);
        out.beginRow()
            .cell(b)
            .cell(pt.tokensPerSecond, 0)
            .cell(pt.requestsPerSecond, 2)
            .cell(pt.interTokenLatency * 1e3, 2)
            .cell(pt.timeToFirstToken * 1e3, 1)
            .cell(pt.fits ? "yes" : "NO")
            .cell(costPerMillionTokens(sys, opts, pt, cost), 2);
        out.endRow();
    }
    std::cout << model.name << " serving on TP" << opts.tensorParallel
              << " " << sys.device.name << " ("
              << opts.promptLength << "+" << opts.generateLength
              << " tokens)\n\n";
    out.print(std::cout);

    ServingPoint best = maxThroughputPoint(
        model, sys, opts, args.getInt("max-batch", 128));
    std::cout << "\nbest fitting batch: " << best.batch << " ("
              << best.tokensPerSecond << " tok/s)\n";
    return 0;
}

int
cmdSensitivity(const Args &args)
{
    JsonValue cfg = loadConfig(args);
    TransformerConfig model = resolveModel(args, cfg);
    System sys = resolveSystem(args, cfg);

    std::function<double(const System &)> objective;
    std::string label;
    if (args.get("mode", "train") == "infer") {
        InferenceOptions opts;
        opts.tensorParallel = args.getInt("tp", 1);
        opts.batch = args.getInt("batch", 1);
        objective = [=](const System &s) {
            return evaluateInference(model, s, opts).totalLatency;
        };
        label = "inference latency";
    } else {
        ParallelConfig par = resolveParallel(args, cfg);
        long long batch = args.getInt("batch", 64);
        TrainingOptions opts;
        opts.recompute = resolveRecompute(args);
        objective = [=](const System &s) {
            return evaluateTraining(model, s, par, batch, opts)
                .timePerBatch;
        };
        label = "training time per batch";
    }

    std::vector<Sensitivity> rows = analyzeSensitivity(
        sys, objective,
        static_cast<int>(args.getInt("threads", 0)));
    std::cout << model.name << " on " << sys.device.name
              << ": elasticity of " << label
              << " per resource (-1 = fully bound)\n\n";
    sensitivityTable(rows).print(std::cout);
    return 0;
}

int
cmdPlan(const Args &args)
{
    JsonValue cfg = loadConfig(args);
    TransformerConfig model = resolveModel(args, cfg);
    System sys = resolveSystem(args, cfg);
    long long batch = args.getInt("batch", 64);

    TrainingPlannerOptions opts;
    opts.seqLength = args.getInt("seq", 2048);
    opts.precision = parsePrecision(args.get("precision", "fp16"));
    opts.flashAttention = args.has("flash-attention");
    opts.keep = static_cast<size_t>(args.getInt("top", 8));
    opts.threads = static_cast<int>(args.getInt("threads", 0));
    if (args.has("zero"))
        opts.zeroStages = {0,
                           static_cast<int>(args.getInt("zero", 1))};

    std::vector<TrainingPlan> plans =
        planTraining(model, sys, batch, opts);
    if (plans.empty()) {
        std::cout << "no parallelization of " << model.name
                  << " fits " << sys.device.name
                  << " memory at batch " << batch << "\n";
        return 1;
    }

    Table out({"DP-TP-PP-SP", "Schedule", "Recompute", "ZeRO",
               "t/batch (s)", "MFU (%)", "Mem/GPU (GiB)"});
    for (const TrainingPlan &p : plans) {
        out.beginRow()
            .cell(p.parallel.label())
            .cell(p.parallel.interleavedStages > 1
                      ? "interleaved x" +
                            std::to_string(
                                p.parallel.interleavedStages)
                      : scheduleName(p.parallel.schedule))
            .cell(recomputeName(p.options.recompute))
            .cell(static_cast<long long>(p.options.memory.zeroStage))
            .cell(p.report.timePerBatch, 2)
            .cell(p.report.mfu * 100.0, 1)
            .cell(p.report.memory.total() / GiB, 1);
        out.endRow();
    }
    std::cout << model.name << " on " << sys.totalDevices() << "x "
              << sys.device.name << ", batch " << batch
              << " - ranked plans:\n\n";
    out.print(std::cout);
    return 0;
}

int
cmdMemory(const Args &args)
{
    JsonValue cfg = loadConfig(args);
    TransformerConfig model = resolveModel(args, cfg);
    ParallelConfig par = resolveParallel(args, cfg);
    long long batch = args.getInt("batch", 64);
    long long seq = args.getInt("seq", 2048);

    Table out({"Recompute", "Weights", "Grads", "Optimizer",
               "Activations", "Total (GiB)"});
    for (Recompute r : {Recompute::None, Recompute::Selective,
                        Recompute::Full}) {
        MemoryOptions mopts;
        mopts.zeroStage = static_cast<int>(args.getInt("zero", 0));
        TrainingMemory mem =
            trainingMemoryPerDevice(model, par, batch, seq, r, mopts);
        out.beginRow()
            .cell(recomputeName(r))
            .cell(mem.weights / GiB, 2)
            .cell(mem.gradients / GiB, 2)
            .cell(mem.optimizer / GiB, 2)
            .cell(mem.activations / GiB, 2)
            .cell(mem.total() / GiB, 2);
        out.endRow();
    }
    std::cout << model.name << ", " << par.label() << ", batch "
              << batch << ", seq " << seq << " (GiB per device)\n\n";
    out.print(std::cout);
    return 0;
}

int
cmdLint(const Args &args)
{
    // Config path: positional operand or --config FILE.
    std::string path = args.positionals().empty()
                           ? args.get("config", "")
                           : args.positionals().front();
    checkConfig(!path.empty(),
                "lint needs a config file: optimus_cli lint "
                "<config.json>");
    std::ifstream in(path);
    checkConfig(in.good(), "cannot open config file " + path);
    std::stringstream ss;
    ss << in.rdbuf();
    JsonValue cfg = JsonValue::parse(ss.str());

    lint::LintReport report;
    try {
        TransformerConfig model = resolveModel(args, cfg);
        System sys = resolveSystem(args, cfg);
        if (cfg.isObject() && cfg.has("inference")) {
            InferenceOptions opts =
                config::inferenceOptionsFromJson(cfg.at("inference"));
            report = lint::lintInference(model, sys, opts);
        } else {
            ParallelConfig par = resolveParallel(args, cfg);
            long long batch = args.getInt("batch", 64);
            TrainingOptions opts;
            if (cfg.isObject() && cfg.has("training"))
                opts = config::trainingOptionsFromJson(
                    cfg.at("training"));
            report = lint::lintTraining(model, sys, par, batch, opts);
        }
    } catch (const LintError &e) {
        // A deserializer rejected a component outright; its report is
        // still the aggregated list for that component.
        report = e.report();
    }

    if (args.has("json")) {
        std::cout << config::toJson(report).dump(2) << "\n";
        return report.hasErrors() ? 1 : 0;
    }

    if (report.empty()) {
        std::cout << path << ": no diagnostics\n";
        return 0;
    }
    lint::diagnosticsTable(report).print(std::cout);
    std::cout << "\n" << path << ": " << report.summary() << "\n";
    return report.hasErrors() ? 1 : 0;
}

int
cmdTrace(const Args &args)
{
    JsonValue cfg = loadConfigOperand(args);
    Evaluation ev =
        resolveEvaluation(args, cfg, resolveMode(args, cfg) == "infer");
    const TransformerConfig &model = ev.model;
    const System &sys = ev.sys;
    lint::LintReport lrep = refuseLintErrors(ev);

    TraceSession session;
    session.counterAdd("lint/diagnostics",
                       double(lrep.diagnostics().size()));
    session.counterAdd("lint/warnings", double(lrep.warningCount()));
    double model_total = 0.0;
    std::string what;
    if (ev.infer) {
        ev.inference.trace = &session;
        model_total =
            evaluateInference(model, sys, ev.inference).totalLatency;
        what = "inference latency";
    } else {
        ev.training.trace = &session;
        model_total = evaluateTraining(model, sys, ev.par, ev.batch,
                                       ev.training)
                          .timePerBatch;
        what = "training time per batch";
    }

    // Surface the exec/tile-cache statistics as trace counters so
    // sweep tooling reads thread counts and hit rates straight from
    // the export (--threads is accepted for CLI uniformity; a
    // single-point evaluation itself runs serially).
    TileCacheStats tstats = tileCacheStats();
    session.counterSet("roofline/tile-cache-hits",
                       double(tstats.hits));
    session.counterSet("roofline/tile-cache-misses",
                       double(tstats.misses));
    session.counterSet("roofline/tile-cache-hit-rate",
                       tstats.hitRate());
    session.counterSet("roofline/tile-cache-entries",
                       double(tstats.entries));
    session.counterSet(
        "exec/threads",
        double(resolveThreads(
            static_cast<int>(args.getInt("threads", 0)))));

    // The trace is a decomposition of the model: span sums per
    // category (kernel-detail spans excluded) must reproduce the
    // aggregate report.
    double trace_total = 0.0;
    for (const auto &kv : session.categoryTotals())
        if (kv.first != "kernel")
            trace_total += kv.second;

    std::string out = args.get("out", "trace.json");
    {
        std::ofstream f(out);
        checkConfig(f.good(), "cannot write trace file " + out);
        f << chromeTraceJson(session).dump() << "\n";
    }
    std::cout << model.name << " on " << sys.device.name << ", "
              << what << " " << formatTime(model_total) << "\n\n"
              << summaryText(session) << "\n"
              << "trace span total " << trace_total
              << " s vs model total " << model_total << " s (delta "
              << trace_total - model_total << " s)\n"
              << "wrote " << out
              << " (open in https://ui.perfetto.dev or "
                 "chrome://tracing)\n";
    if (args.has("csv")) {
        std::string csv_path = args.get("csv", "kernels.csv");
        std::ofstream c(csv_path);
        checkConfig(c.good(), "cannot write csv file " + csv_path);
        c << kernelCsv(session);
        std::cout << "wrote " << csv_path << "\n";
    }
    return 0;
}

int
cmdKernels(const Args &args)
{
    JsonValue cfg = loadConfigOperand(args);
    Evaluation ev =
        resolveEvaluation(args, cfg, resolveMode(args, cfg) == "infer");
    const TransformerConfig &model = ev.model;
    const System &sys = ev.sys;
    refuseLintErrors(ev);

    plan::EvaluatedPlan ep;
    double model_total = 0.0;
    std::string what;
    if (ev.infer) {
        plan::InferenceRun run =
            plan::runInference(model, sys, ev.inference);
        ep = std::move(run.plan);
        model_total = run.report.totalLatency;
        what = "inference latency";
    } else {
        plan::TrainingRun run = plan::runTraining(
            model, sys, ev.par, ev.batch, ev.training);
        ep = std::move(run.plan);
        model_total = run.report.timePerBatch;
        what = "training time per batch";
    }

    // --out redirects whichever representation was selected; the
    // human-readable table defaults to stdout.
    std::ostream *os = &std::cout;
    std::ofstream file;
    if (args.has("out")) {
        std::string out = args.get("out", "kernels.json");
        file.open(out);
        checkConfig(file.good(), "cannot write output file " + out);
        os = &file;
    }

    if (args.has("json")) {
        *os << plan::planJson(ep).dump(2) << "\n";
        return 0;
    }
    if (args.has("csv")) {
        *os << plan::planCsv(ep);
        return 0;
    }

    Table table({"lane", "name", "category", "kind", "count",
                 "total", "detail"});
    double total = 0.0;
    for (const plan::StepSummary &r : plan::summarizePlan(ep)) {
        table.beginRow()
            .cell(r.lane)
            .cell(r.name)
            .cell(r.category)
            .cell(r.kind)
            .cell(r.count)
            .cell(formatTime(r.total))
            .cell(r.detail);
        table.endRow();
        total += r.total;
    }
    *os << model.name << " on " << sys.device.name << ", " << what
        << " " << formatTime(model_total) << "\n\n";
    table.print(*os);
    *os << "\n" << table.rowCount() << " plan steps, span total "
        << formatTime(total) << "\n";
    return 0;
}

DramTech
resolveDramTech(const std::string &name)
{
    if (std::optional<DramTech> tech = dram::byName(name))
        return *tech;
    throw ConfigError("unknown --dram value: " + name);
}

/** DSE problem resolved from flags, shared by `dse` and `record`. */
struct DseSetup
{
    TechConfig tech;
    DeviceObjective objective;
    std::string label;
    DseOptions dopts;
    /** Canonical description of the objective, for RunRecords. */
    JsonValue objectiveConfig;
};

/** The DSE problem of @p args, with a "train" or "infer" objective. */
DseSetup
resolveDseSetup(const Args &args, const std::string &mode)
{
    DseSetup s;
    s.tech.node = logicNode(args.get("node", "N5"));
    s.tech.dram = resolveDramTech(args.get("dram", "hbm3"));
    s.tech.areaBudget = args.getNumber("area", s.tech.areaBudget);
    s.tech.powerBudget = args.getNumber("power", s.tech.powerBudget);

    const int gpus = static_cast<int>(args.getInt("gpus-per-node", 8));
    TransformerConfig model = config::modelPreset(args.get(
        "model", mode == "infer" ? "llama2-13b" : "gpt-7b"));
    s.objectiveConfig = JsonValue::object();
    s.objectiveConfig.set("mode", JsonValue::string(mode));
    s.objectiveConfig.set("model", JsonValue::string(model.name));
    s.objectiveConfig.set("gpusPerNode",
                          JsonValue::number(double(gpus)));
    if (mode == "infer") {
        InferenceOptions opts;
        opts.tensorParallel = args.getInt("tp", 1);
        opts.batch = args.getInt("batch", 1);
        opts.promptLength = args.getInt("prompt", 200);
        opts.generateLength = args.getInt("generate", 200);
        s.objective = [=](const Device &dev) {
            System sys = makeSystem(dev, gpus, 1, presets::nvlink4(),
                                    nettech::gdrX8());
            return evaluateInference(model, sys, opts).totalLatency;
        };
        s.label = model.name + " inference latency";
        s.objectiveConfig.set("inference", config::toJson(opts));
    } else if (mode == "train") {
        const int nodes = static_cast<int>(args.getInt("nodes", 16));
        ParallelConfig par;
        par.tensorParallel = args.getInt("tp", 4);
        par.pipelineParallel = args.getInt("pp", 4);
        long long rest = par.tensorParallel * par.pipelineParallel;
        par.dataParallel =
            args.getInt("dp", static_cast<long long>(gpus) * nodes /
                                  rest);
        par.sequenceParallel = par.tensorParallel > 1;
        long long batch = args.getInt("batch", 512);
        TrainingOptions topts;
        topts.recompute = Recompute::Selective;
        topts.seqLength = args.getInt("seq", 2048);
        s.objective = [=](const Device &dev) {
            System sys = makeSystem(dev, gpus, nodes,
                                    presets::nvlink4(),
                                    nettech::gdrX8());
            return evaluateTraining(model, sys, par, batch, topts)
                .timePerBatch;
        };
        s.label = model.name + " training time per batch";
        s.objectiveConfig.set("nodes",
                              JsonValue::number(double(nodes)));
        s.objectiveConfig.set("parallel", config::toJson(par));
        s.objectiveConfig.set("batch",
                              JsonValue::number(double(batch)));
        s.objectiveConfig.set("training", config::toJson(topts));
    } else {
        throw ConfigError("unknown --mode value: " + mode);
    }

    s.dopts.gridSteps =
        static_cast<int>(args.getInt("grid", s.dopts.gridSteps));
    s.dopts.refineRounds =
        static_cast<int>(args.getInt("rounds", s.dopts.refineRounds));
    s.dopts.threads = static_cast<int>(args.getInt("threads", 0));
    return s;
}

int
cmdDse(const Args &args)
{
    DseSetup setup = resolveDseSetup(args, args.get("mode", "train"));
    TechConfig &tech = setup.tech;
    DeviceObjective &objective = setup.objective;
    std::string &label = setup.label;
    DseOptions &dopts = setup.dopts;

    TraceSession session;
    dopts.trace = &session;
    const bool verbose = args.has("verbose");
    if (verbose)
        dopts.onRound = [](const DseRound &r) {
            std::cout << (r.round < 0
                              ? std::string("grid")
                              : "round " + std::to_string(r.round))
                      << ": best " << formatTime(r.bestObjective)
                      << " after " << r.evaluations
                      << " evaluations (step " << r.step << ")\n";
        };

    DseResult r = optimizeAllocation(tech, objective, dopts);
    if (verbose)
        std::cout << "\n";
    const Device &d = r.device;
    std::cout << "DSE at " << tech.node.name << " + "
              << tech.dram.name << " (" << tech.areaBudget
              << " mm^2, " << tech.powerBudget
              << " W), objective: " << label << "\n\n"
              << "  compute area fraction : "
              << r.allocation.computeAreaFraction << "\n"
              << "  compute power fraction: "
              << r.allocation.computePowerFraction << "\n"
              << "  fp16 matrix throughput: "
              << formatFlops(d.matrixFlops(Precision::FP16)) << "\n"
              << "  L2 capacity           : "
              << formatBytes(d.level("L2").capacity) << "\n"
              << "  objective             : " << formatTime(r.objective)
              << "\n"
              << "  evaluations           : " << r.evaluations
              << " (" << session.counter("dse/pruned")
              << " pruned by lint)\n";
    if (verbose) {
        std::cout << "\n";
        counterSummaryTable(session).print(std::cout);
    }
    return 0;
}

int
cmdRecord(const Args &args)
{
    JsonValue cfg = loadConfigOperand(args);
    std::string mode = resolveMode(args, cfg);
    report::RunRecord rec;
    if (mode == "infer") {
        Evaluation ev = resolveEvaluation(args, cfg, true);
        rec = report::recordInference(
            ev.model, ev.sys, ev.inference,
            args.get("label", ev.model.name + " inference"));
    } else if (mode == "train") {
        Evaluation ev = resolveEvaluation(args, cfg, false);
        rec = report::recordTraining(
            ev.model, ev.sys, ev.par, ev.batch, ev.training,
            args.get("label", ev.model.name + " training"));
    } else if (mode == "plan") {
        TransformerConfig model = resolveModel(args, cfg);
        System sys = resolveSystem(args, cfg);
        long long batch = args.getInt("batch", 64);
        TrainingPlannerOptions opts;
        opts.seqLength = args.getInt("seq", 2048);
        opts.precision =
            parsePrecision(args.get("precision", "fp16"));
        opts.keep = static_cast<size_t>(args.getInt("top", 8));
        opts.threads = static_cast<int>(args.getInt("threads", 0));
        rec = report::recordPlanner(
            model, sys, batch, opts,
            args.get("label", model.name + " planner"));
    } else if (mode == "dse") {
        // --mode already says "dse" here; the objective kind comes
        // from the config's sections.
        DseSetup setup = resolveDseSetup(args, configMode(cfg));
        rec = report::recordDse(setup.tech, setup.objective,
                                setup.dopts, setup.objectiveConfig,
                                args.get("label", setup.label));
    } else {
        throw ConfigError("unknown --mode value: " + mode);
    }

    std::string out = args.get("out", "run.json");
    report::writeRunRecord(out, rec);
    std::cout << report::versionLine() << "\n"
              << rec.kind << " run '" << rec.label
              << "', config fingerprint " << rec.fingerprint << "\n"
              << rec.metrics.size() << " metrics, "
              << rec.kernels.size() << " kernel aggregates, "
              << rec.counters.size() << " counters ("
              << rec.wallSeconds * 1e3 << " ms wall)\n"
              << "wrote " << out << "\n";
    return 0;
}

int
cmdDiff(const Args &args)
{
    checkConfig(args.positionals().size() == 2,
                "diff needs two run files: optimus_cli diff <a.json> "
                "<b.json> [--check] [--tol-pct N] [--json]");
    report::RunRecord a =
        report::loadRunRecord(args.positionals()[0]);
    report::RunRecord b =
        report::loadRunRecord(args.positionals()[1]);

    report::DiffOptions dopts;
    dopts.tolPct = args.getNumber("tol-pct", dopts.tolPct);
    report::RunDiff diff = report::diffRuns(a, b, dopts);

    if (args.has("json"))
        std::cout << report::toJson(diff).dump(2) << "\n";
    else
        std::cout << report::diffText(diff, a, b, dopts);

    return args.has("check") ? report::checkExitCode(diff) : 0;
}

int
cmdVersion(const Args &)
{
    std::cout << report::versionLine() << "\n";
    return 0;
}

int
cmdPresets()
{
    std::cout << "Device presets:\n";
    for (const std::string &name : config::devicePresetNames())
        std::cout << "  " << name << "\n";
    std::cout << "System presets (use with --nodes N):\n";
    for (const std::string &name : config::systemPresetNames())
        std::cout << "  " << name << "\n";
    std::cout << "Model presets:\n";
    for (const std::string &name : config::modelPresetNames())
        std::cout << "  " << name << "\n";
    return 0;
}

/** The subcommands by name. */
constexpr Named<int (*)(const Args &)> kCommands[] = {
    {"train", cmdTrain}, {"infer", cmdInfer}, {"serve", cmdServe},
    {"plan", cmdPlan}, {"sensitivity", cmdSensitivity},
    {"memory", cmdMemory}, {"lint", cmdLint}, {"trace", cmdTrace},
    {"kernels", cmdKernels}, {"dse", cmdDse}, {"record", cmdRecord},
    {"diff", cmdDiff}, {"version", cmdVersion},
};

int
usage()
{
    std::cout <<
        "usage: optimus_cli <command> [flags]\n"
        "\n"
        "commands:\n"
        "  train    --model M --system S --nodes N --batch B --dp D\n"
        "           --tp T --pp P [--sp] [--recompute none|selective|"
        "full]\n"
        "           [--seq L] [--precision fp16|fp8|fp4] [--zero 0-3]\n"
        "           [--flash-attention] [--microbatch m] "
        "[--interleave v]\n"
        "  infer    --model M --system S [--tp T] [--batch B]\n"
        "           [--prompt P] [--generate G] [--flash-attention]\n"
        "  serve    --model M --system S [--tp T] [--prompt P]\n"
        "           [--generate G] [--max-batch N]\n"
        "  plan     --model M --system S --nodes N --batch B "
        "[--top K]\n"
        "           [--threads N]\n"
        "  sensitivity --model M --system S [--mode train|infer]\n"
        "              [--threads N]\n"
        "              bottleneck attribution per hardware resource\n"
        "  memory   --model M --dp D --tp T --pp P [--sp] "
        "[--batch B]\n"
        "  lint     <config.json> [--batch B] - static-check a config\n"
        "           without evaluating it (exit 1 on errors)\n"
        "  trace    <config.json> [--out trace.json] [--csv FILE]\n"
        "           [--threads N]\n"
        "           record a Perfetto-loadable timeline of the "
        "modeled run\n"
        "  kernels  <config.json> [--json|--csv] [--out FILE]\n"
        "           dump the lowered kernel plan (one row per plan\n"
        "           step: identity, repeat count, time, bound/scope)\n"
        "  dse      [--mode train|infer] [--node N3|N5] [--dram D]\n"
        "           [--area MM2] [--power W] [--verbose] "
        "[--threads N]\n"
        "           optimize the compute/memory area+power split\n"
        "  record   <config.json> [--mode train|infer|plan|dse]\n"
        "           [--out run.json] [--label NAME]\n"
        "           write a schema-versioned RunRecord ledger entry\n"
        "  diff     <a.json> <b.json> [--check] [--tol-pct N] "
        "[--json]\n"
        "           compare two RunRecords; --check exits 1 on drift\n"
        "           beyond tolerance (default 0.5%)\n"
        "  version  print tool version, RunRecord schema, git SHA\n"
        "  presets  list built-in presets\n"
        "\n"
        "common flags: --config FILE (JSON), --json (JSON output),\n"
        "  --threads N (sweep worker threads; 0 = OPTIMUS_THREADS\n"
        "  env, default 1; results are identical at any count)\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        Args args = Flags::parse(argc, argv);
        if (auto cmd = findNamed(kCommands, args.command()))
            return (*cmd)(args);
        // --version outranks the presets listing.
        if (args.has("version"))
            return cmdVersion(args);
        if (args.command() == "presets")
            return cmdPresets();
        return usage();
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
