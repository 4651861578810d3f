/**
 * @file
 * Parallelization strategy description (paper Sec. 1.3 / 3.2): data,
 * tensor, pipeline and sequence parallelism plus the pipeline
 * schedule. Conventions follow Megatron-LM: TP (and SP) stay inside a
 * node; DP and PP span nodes.
 */

#ifndef OPTIMUS_PARALLEL_CONFIG_H
#define OPTIMUS_PARALLEL_CONFIG_H

#include <optional>
#include <string>
#include <string_view>

#include "hw/system.h"
#include "workload/model_config.h"

namespace optimus {

/** Pipeline-parallel schedules modeled (Sec. 3.2). */
enum class PipelineSchedule {
    GPipe,            ///< all-forward then all-backward
    OneFOneB,         ///< PipeDream-Flush
    Interleaved1F1B,  ///< Megatron interleaved schedule
};

/** Name of a schedule ("gpipe", "1f1b", "interleaved"). */
const char *scheduleName(PipelineSchedule s);

/** The schedule spelled @p name, or nullopt for an unknown name. */
std::optional<PipelineSchedule> scheduleFromName(std::string_view name);

/** A complete parallelization mapping. */
struct ParallelConfig
{
    long long dataParallel = 1;
    long long tensorParallel = 1;
    long long pipelineParallel = 1;
    bool sequenceParallel = false;
    PipelineSchedule schedule = PipelineSchedule::OneFOneB;

    /** Sequences per microbatch (Megatron's micro-batch-size). */
    long long microbatchSize = 1;

    /** Virtual pipeline stages per device (interleaved schedule). */
    long long interleavedStages = 1;

    /**
     * Expert-parallel degree for mixture-of-experts FFNs: experts
     * shard over this many devices of the data-parallel dimension
     * (Megatron convention), with an all-to-all dispatch/combine per
     * layer. Must divide both numExperts and dataParallel.
     */
    long long expertParallel = 1;

    /**
     * Context-parallel degree (ring attention over the sequence);
     * multiplies the device count like the other dimensions.
     */
    long long contextParallel = 1;

    /** Device count the mapping requires (DP * CP * TP * PP). */
    long long totalDevices() const;

    /** Compact label like "8-8-8-1" (DP-TP-PP-SPdegree). */
    std::string label() const;

    /** Microbatches each pipeline executes per global batch. */
    long long microbatches(long long global_batch) const;

    /** Validate against a model and system; throws ConfigError. */
    void validate(const TransformerConfig &cfg, const System &sys,
                  long long global_batch) const;
};

} // namespace optimus

#endif // OPTIMUS_PARALLEL_CONFIG_H
