/**
 * @file
 * The four workloads. Each builds its seeded input population as a
 * list of Calls; main.cpp shuffles and times them.
 */

#ifndef ENGINE_BENCH_WORKLOADS_H
#define ENGINE_BENCH_WORKLOADS_H

#include <cstdint>
#include <vector>

#include "core/optimus.h"
#include "harness.h"

namespace bench {

/** planTraining problems keeping the full ranked list. */
std::vector<Call> trainSweep(uint64_t seed);

/** evaluateInference, planServing and evaluateSpeculative mix. */
std::vector<Call> decodeServe(uint64_t seed);

/** optimizeAllocation over the Fig. 6 grid plus inference objectives. */
std::vector<Call> dseTech(uint64_t seed);

/** The CLI record/trace/kernels/diff path, in process. */
std::vector<Call> recordExplain(uint64_t seed);

// ---- Shared correctness gates -------------------------------------

/**
 * Gate a training report: finite non-negative categories that sum to
 * timePerBatch within 1e-9, positive time and memory, MFU in (0, 1].
 * Returns {timePerBatch, mfu, memory}.
 */
Predictions checkTraining(const optimus::TrainingReport &rep);

/**
 * Gate an inference report: positive phase times whose sum is
 * totalLatency within 1e-9. Returns {prefill, decode, total}.
 */
Predictions checkInference(const optimus::InferenceReport &rep);

/** JSON object {"model": ..., "system": ..., "nodes": ...}. */
optimus::JsonValue describe(const std::string &model,
                            const std::string &system, int nodes);

} // namespace bench

#endif // ENGINE_BENCH_WORKLOADS_H
