#include "parallel/config.h"

#include "lint/lint.h"
#include "util/error.h"
#include "util/names.h"

namespace optimus {

constexpr Named<PipelineSchedule> kScheduleNames[] = {
    {"gpipe", PipelineSchedule::GPipe},
    {"1f1b", PipelineSchedule::OneFOneB},
    {"interleaved", PipelineSchedule::Interleaved1F1B},
};

const char *
scheduleName(PipelineSchedule s)
{
    if (const char *name = nameOf(kScheduleNames, s))
        return name;
    throw ModelError("unknown pipeline schedule");
}

std::optional<PipelineSchedule>
scheduleFromName(std::string_view name)
{
    return findNamed(kScheduleNames, name);
}

long long
ParallelConfig::totalDevices() const
{
    return dataParallel * contextParallel * tensorParallel *
           pipelineParallel;
}

std::string
ParallelConfig::label() const
{
    return std::to_string(dataParallel) + "-" +
           std::to_string(tensorParallel) + "-" +
           std::to_string(pipelineParallel) + "-" +
           std::to_string(sequenceParallel ? tensorParallel : 1);
}

long long
ParallelConfig::microbatches(long long global_batch) const
{
    checkPositive(global_batch, "global batch");
    long long per_pipeline = global_batch / dataParallel;
    checkConfig(per_pipeline * dataParallel == global_batch,
                "global batch must divide by DP degree");
    long long m = per_pipeline / microbatchSize;
    checkConfig(m * microbatchSize == per_pipeline,
                "per-pipeline batch must divide by microbatch size");
    return m;
}

void
ParallelConfig::validate(const TransformerConfig &cfg, const System &sys,
                         long long global_batch) const
{
    lint::enforce(lint::lintMapping(cfg, sys, *this, global_batch));
}

} // namespace optimus
