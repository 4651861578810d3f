#include "reference.h"

#include <cmath>
#include <map>

#include "core/optimus.h"
#include "harness.h"

namespace bench {

using namespace optimus;

namespace {

/** Baseline predictions by validation-row name. */
std::map<std::string, double>
baselineRows(const std::string &root, const std::string &table)
{
    std::map<std::string, double> rows;
    for (const report::ValidationRow &v :
         report::loadRunRecord(root + "/baselines/" + table + ".json")
             .validation)
        rows[v.name] = v.predicted;
    return rows;
}

/** Gate one prediction against its baseline row; return |error| %. */
double
checkRow(const std::map<std::string, double> &baseline,
         const std::string &name, double predicted, double reference)
{
    auto it = baseline.find(name);
    require(it != baseline.end(), "no baseline row " + name);
    near(predicted, it->second, 1e-9,
         "reference row " + name + " drifted from the baseline");
    return std::fabs(relativeErrorPct(predicted, reference));
}

struct Table1Row
{
    TransformerConfig (*model)();
    int gpus;
    long long batch;
    long long dp, tp, pp;
    bool sp;
    Recompute recompute;
    double tRef;  ///< seconds
};

struct Table2Row
{
    TransformerConfig (*model)();
    int tp;
    double a100Ms;
    double h100Ms;
};

} // namespace

std::vector<double>
table1Errors(const std::string &root)
{
    // Paper Table 1 (bench/table1_training_validation.cpp).
    const std::vector<Table1Row> rows = {
        {models::gpt22b, 8, 4, 1, 8, 1, false, Recompute::Full, 1.4},
        {models::gpt175b, 64, 64, 1, 8, 8, false, Recompute::Full, 18.1},
        {models::gpt530b, 280, 280, 1, 8, 35, false, Recompute::Full,
         49.1},
        {models::gpt1008b, 512, 512, 1, 8, 64, false, Recompute::Full,
         94.4},
        {models::gpt22b, 8, 4, 1, 8, 1, true, Recompute::Selective, 1.1},
        {models::gpt175b, 64, 64, 1, 8, 8, true, Recompute::Selective,
         13.8},
        {models::gpt530b, 280, 280, 1, 8, 35, true, Recompute::Selective,
         37.8},
        {models::gpt1008b, 512, 512, 1, 8, 64, true,
         Recompute::Selective, 71.5},
        {models::gpt310b, 1920, 2160, 15, 8, 16, false, Recompute::Full,
         37.6},
        {models::gpt530b, 2520, 2520, 9, 8, 35, false, Recompute::Full,
         54.2},
        {models::gpt1008b, 3072, 3072, 6, 8, 64, false, Recompute::Full,
         102.4},
    };
    const auto baseline = baselineRows(root, "table1");
    std::vector<double> errs;
    for (const Table1Row &row : rows) {
        TransformerConfig model = row.model();
        ParallelConfig par;
        par.dataParallel = row.dp;
        par.tensorParallel = row.tp;
        par.pipelineParallel = row.pp;
        par.sequenceParallel = row.sp;
        TrainingOptions opts;
        opts.recompute = row.recompute;
        double t = evaluateTraining(model, presets::dgxA100(row.gpus / 8),
                                    par, row.batch, opts)
                       .timePerBatch;
        std::string name = model.name + "/" + std::to_string(row.gpus) +
                           "gpu/" + recomputeName(row.recompute) +
                           (row.sp ? "-sp" : "");
        errs.push_back(checkRow(baseline, name, t, row.tRef));
    }
    return errs;
}

std::vector<double>
table2Errors(const std::string &root)
{
    // Paper Table 2 (bench/table2_inference_validation.cpp).
    const std::vector<Table2Row> rows = {
        {models::llama2_70b, 8, 4735, 3202},
        {models::llama2_70b, 4, 6403, 4116},
        {models::llama2_70b, 2, 10500, 6267},
        {models::llama2_13b, 8, 1693, 1201},
        {models::llama2_13b, 4, 1894, 1431},
        {models::llama2_13b, 2, 2499, 1717},
        {models::llama2_13b, 1, 3884, 2396},
        {models::llama2_7b, 8, 1187, 828},
        {models::llama2_7b, 4, 1280, 924},
        {models::llama2_7b, 2, 1544, 1143},
        {models::llama2_7b, 1, 2190, 1440},
    };
    const auto baseline = baselineRows(root, "table2");
    const System a100 = presets::dgxA100(1);
    const System h100 = presets::dgxH100(1);
    std::vector<double> errs;
    for (const Table2Row &row : rows) {
        TransformerConfig model = row.model();
        InferenceOptions opts;
        opts.tensorParallel = row.tp;
        opts.promptLength = 200;
        opts.generateLength = 200;
        std::string base = model.name + "/tp" + std::to_string(row.tp);
        double a = evaluateInference(model, a100, opts).totalLatency * 1e3;
        double h = evaluateInference(model, h100, opts).totalLatency * 1e3;
        errs.push_back(checkRow(baseline, base + "/a100-ms", a, row.a100Ms));
        errs.push_back(checkRow(baseline, base + "/h100-ms", h, row.h100Ms));
    }
    return errs;
}

} // namespace bench
