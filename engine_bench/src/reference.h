/**
 * @file
 * The paper's published reference rows (Table 1 training, Table 2
 * inference) behind model_err_pct, and the gate that ties their
 * predictions to the committed ledger in baselines/.
 */

#ifndef ENGINE_BENCH_REFERENCE_H
#define ENGINE_BENCH_REFERENCE_H

#include <string>
#include <vector>

namespace bench {

/**
 * |relative error| (percent) of every Table 1 row against the
 * Megatron-LM / Korthikanti et al. times. Throws GateError unless each
 * prediction matches @p root/baselines/table1.json to 1e-9 relative.
 */
std::vector<double> table1Errors(const std::string &root);

/** Table 2 analogue (22 NVIDIA-published latencies, table2.json). */
std::vector<double> table2Errors(const std::string &root);

} // namespace bench

#endif // ENGINE_BENCH_REFERENCE_H
