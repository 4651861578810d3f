#include <cmath>

#include "workloads.h"

namespace bench {

using namespace optimus;

Predictions
checkTraining(const TrainingReport &rep)
{
    const TrainingBreakdown &t = rep.time;
    double sum = 0.0;
    for (double v : {t.forward, t.backward, t.recompute, t.embedding,
                     t.tpComm, t.cpComm, t.epComm, t.ppComm, t.dpComm,
                     t.bubble, t.optimizer}) {
        require(std::isfinite(v) && v >= 0.0,
                "training breakdown category is negative or non-finite");
        sum += v;
    }
    positive(rep.timePerBatch, "timePerBatch");
    near(sum, rep.timePerBatch, 1e-9,
         "training categories do not sum to timePerBatch");
    positive(rep.memory.total(), "training memory");
    require(rep.mfu > 0.0 && rep.mfu <= 1.0, "MFU outside (0, 1]");
    return {rep.timePerBatch, rep.mfu, rep.memory.total()};
}

Predictions
checkInference(const InferenceReport &rep)
{
    positive(rep.prefill.time, "prefill time");
    positive(rep.decode.time, "decode time");
    near(rep.prefill.time + rep.decode.time, rep.totalLatency, 1e-9,
         "prefill + decode does not equal totalLatency");
    positive(rep.weightBytes, "weight bytes");
    positive(rep.kvCacheBytes, "KV-cache bytes");
    return {rep.prefill.time, rep.decode.time, rep.totalLatency};
}

JsonValue
describe(const std::string &model, const std::string &system, int nodes)
{
    JsonValue j = JsonValue::object();
    j.set("model", JsonValue::string(model));
    j.set("system", JsonValue::string(system));
    j.set("nodes", JsonValue::number(double(nodes)));
    return j;
}

} // namespace bench
