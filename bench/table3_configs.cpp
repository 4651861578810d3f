/**
 * @file
 * Reproduces paper Table 3: the training configurations of the case
 * studies (an input table — printed for completeness and checked for
 * internal consistency: total #GPUs = DP x TP x PP, heads/layers
 * divisibility, and the memory fit the case studies assume).
 */

#include <iostream>

#include "core/optimus.h"

using namespace optimus;

int
main()
{
    std::cout << "Table 3: case-study training configurations "
                 "(total #GPUs = DP x TP x PP)\n\n";

    struct Row
    {
        TransformerConfig model;
        long long batch, batch_large;
        long long dp, tp, pp;
    };
    const Row rows[] = {
        {models::gpt175b(), 1024, 4096, 128, 8, 8},
        {models::gpt7b(), 512, 0, 64, 4, 4},
    };

    Table out({"Model", "Batch size", "Seq length", "Vocab size",
               "DP-TP-SP-PP", "#GPUs", "Valid"});
    for (const Row &r : rows) {
        ParallelConfig par;
        par.dataParallel = r.dp;
        par.tensorParallel = r.tp;
        par.pipelineParallel = r.pp;
        par.sequenceParallel = true;

        bool valid = true;
        try {
            System sys = presets::dgxA100(
                static_cast<int>(par.totalDevices() / 8));
            par.validate(r.model, sys, r.batch);
        } catch (const ConfigError &) {
            valid = false;
        }

        std::string batches = std::to_string(r.batch);
        if (r.batch_large > 0)
            batches.append("/").append(std::to_string(r.batch_large));
        out.beginRow()
            .cell(r.model.name)
            .cell(batches)
            .cell(static_cast<long long>(2048))
            .cell(r.model.vocabSize)
            .cell(std::to_string(r.dp) + "-" + std::to_string(r.tp) +
                  "-" + std::to_string(r.tp) + "-" +
                  std::to_string(r.pp))
            .cell(par.totalDevices())
            .cell(valid ? "yes" : "NO");
        out.endRow();
    }
    out.print(std::cout);

    std::cout << "\nThese configurations drive "
                 "bench/fig5_gpu_scaling (GPT-175B) and "
                 "bench/fig6_tech_scaling (GPT-7B).\n";
    return 0;
}
