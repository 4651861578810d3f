#include "config/serialize.h"

#include <algorithm>
#include <concepts>
#include <type_traits>

#include "hw/presets.h"
#include "util/error.h"
#include "util/names.h"
#include "workload/presets.h"

namespace optimus {
namespace config {

namespace {

// ---- Name tables ---------------------------------------------------------

constexpr Named<Device (*)()> kDevicePresets[] = {
    {"a100-80gb", presets::a100_80gb}, {"h100-sxm", presets::h100_sxm},
    {"h200-sxm", presets::h200_sxm}, {"b100", presets::b100},
    {"b200", presets::b200}, {"tpu-v4", presets::tpuV4},
    {"tpu-v5p", presets::tpuV5p},
};

constexpr Named<TransformerConfig (*)()> kModelPresets[] = {
    {"gpt-7b", models::gpt7b}, {"gpt-22b", models::gpt22b},
    {"gpt-175b", models::gpt175b}, {"gpt-310b", models::gpt310b},
    {"gpt-530b", models::gpt530b}, {"gpt-1008b", models::gpt1008b},
    {"llama2-7b", models::llama2_7b}, {"llama2-13b", models::llama2_13b},
    {"llama2-70b", models::llama2_70b},
    {"mixtral-8x7b", models::mixtral8x7b},
    {"llama3-8b", models::llama3_8b}, {"llama3-70b", models::llama3_70b},
    {"llama3-405b", models::llama3_405b},
};

constexpr Named<System (*)(int)> kSystemPresets[] = {
    {"dgx-a100", presets::dgxA100}, {"dgx-h100", presets::dgxH100},
    {"dgx-h100-nvs", presets::dgxH100Nvs},
    {"dgx-h200-nvs", presets::dgxH200Nvs},
    {"dgx-b200", presets::dgxB200}, {"dgx-b200-nvs", presets::dgxB200Nvs},
    {"tpu-v4-pod", presets::tpuV4Pod}, {"tpu-v5p-pod", presets::tpuV5pPod},
};

constexpr Named<NetworkLink (*)()> kLinkPresets[] = {
    {"nvlink3", presets::nvlink3}, {"nvlink4", presets::nvlink4},
    {"nvlink5", presets::nvlink5}, {"hdr-ib", presets::hdrInfiniBand},
    {"ndr-ib", presets::ndrInfiniBand}, {"xdr-ib", presets::xdrInfiniBand},
};

constexpr Named<MlpKind> kMlpNames[] = {
    {"swiglu", MlpKind::SwiGlu}, {"gelu", MlpKind::GeluTwoLayer},
};

/**
 * What @p found holds (an optional or a table row), or a ConfigError
 * "unknown <what>: <name>". Every preset and enum lookup ends here.
 */
template <class Found>
auto
known(const Found &found, const char *what, const std::string &name)
{
    if (!found)
        throw ConfigError(std::string("unknown ") + what + ": " + name);
    return *found;
}

/** The spellings of a preset table in byte order. */
template <class Make, std::size_t N>
std::vector<std::string>
sortedNames(const Named<Make> (&table)[N])
{
    std::vector<std::string> names;
    for (const Named<Make> &row : table)
        names.emplace_back(row.name);
    std::sort(names.begin(), names.end());
    return names;
}

// ---- Member codecs -------------------------------------------------------
// encode() writes one member as a JSON value and decode() reads it
// back; each member type's pair sits together.

JsonValue encode(const std::string &s) { return JsonValue::string(s); }
void decode(const JsonValue &v, std::string &s) { s = v.asString(); }

JsonValue encode(double x) { return JsonValue::number(x); }
void decode(const JsonValue &v, double &x) { x = v.asNumber(); }

JsonValue encode(bool b) { return JsonValue::boolean(b); }
void decode(const JsonValue &v, bool &b) { b = v.asBool(); }

template <std::integral I>
JsonValue encode(I n) { return JsonValue::number(double(n)); }
template <std::integral I>
void decode(const JsonValue &v, I &n) { n = static_cast<I>(v.asInt()); }

// Enums travel by name.
JsonValue encode(Precision p) { return JsonValue::string(precisionName(p)); }
JsonValue encode(Recompute r) { return JsonValue::string(recomputeName(r)); }
JsonValue encode(MlpKind m) { return JsonValue::string(nameOf(kMlpNames, m)); }
JsonValue
encode(PipelineSchedule s)
{
    return JsonValue::string(scheduleName(s));
}

void
decode(const JsonValue &v, Precision &p)
{
    p = parsePrecision(v.asString());
}
void
decode(const JsonValue &v, Recompute &r)
{
    r = known(recomputeFromName(v.asString()), "recompute strategy",
              v.asString());
}
void
decode(const JsonValue &v, PipelineSchedule &s)
{
    s = known(scheduleFromName(v.asString()), "pipeline schedule",
              v.asString());
}
void
decode(const JsonValue &v, MlpKind &m)
{
    m = known(findNamed(kMlpNames, v.asString()), "mlp kind", v.asString());
}

/** Device throughput, keyed by precision name. */
JsonValue
encode(const std::map<Precision, double> &throughput)
{
    JsonValue j = JsonValue::object();
    for (const auto &[p, f] : throughput)
        j.set(precisionName(p), JsonValue::number(f));
    return j;
}
void
decode(const JsonValue &v, std::map<Precision, double> &throughput)
{
    throughput.clear();
    for (const auto &[k, f] : v.asObject())
        throughput[parsePrecision(k)] = f.asNumber();
}

/** A memory hierarchy; name, capacity and bandwidth are required. */
JsonValue
encode(const std::vector<MemoryLevel> &levels)
{
    JsonValue j = JsonValue::array();
    for (const MemoryLevel &m : levels) {
        JsonValue level = JsonValue::object();
        level.set("name", JsonValue::string(m.name));
        level.set("capacity", JsonValue::number(m.capacity));
        level.set("bandwidth", JsonValue::number(m.bandwidth));
        level.set("utilization", JsonValue::number(m.utilization));
        j.push(std::move(level));
    }
    return j;
}
void
decode(const JsonValue &v, std::vector<MemoryLevel> &levels)
{
    levels.clear();
    for (const JsonValue &level : v.asArray())
        levels.push_back({level.at("name").asString(),
                          level.at("capacity").asNumber(),
                          level.at("bandwidth").asNumber(),
                          level.getNumber("utilization", 0.85)});
}

// ---- Field lists -----------------------------------------------------------
// Each flat config type names its fields once, as (JSON key, member)
// in document order. toJson walks a list with encode() and the
// matching *FromJson walks it with decode(), so the writer and the
// reader cannot disagree. A reader-only default is an explicit step
// after the walk; the keys those steps test are named once here.

constexpr const char *kNumKvHeads = "numKvHeads";
constexpr const char *kActivationBytes = "activationBytes";
constexpr const char *kKvPrecision = "kvPrecision";

/** @p C is @p T or const @p T: one list serves reader and writer. */
template <class C, class T>
concept MaybeConst = std::same_as<std::remove_const_t<C>, T>;

template <MaybeConst<NetworkLink> C, class Visit>
void
fields(C &l, Visit &&visit)
{
    visit("name", l.name);
    visit("bandwidth", l.bandwidth);
    visit("latency", l.latency);
    visit("halfUtilVolume", l.halfUtilVolume);
    visit("maxUtilization", l.maxUtilization);
    visit("collectiveOverhead", l.collectiveOverhead);
}

template <MaybeConst<Device> C, class Visit>
void
fields(C &d, Visit &&visit)
{
    visit("name", d.name);
    visit("matrixThroughput", d.matrixThroughput);
    visit("vectorThroughput", d.vectorThroughput);
    visit("mem", d.mem);
    visit("matrixMaxEfficiency", d.matrixMaxEfficiency);
    visit("gemmKHalf", d.gemmKHalf);
    visit("gemvDramUtilization", d.gemvDramUtilization);
    visit("kernelLaunchOverhead", d.kernelLaunchOverhead);
}

template <MaybeConst<TransformerConfig> C, class Visit>
void
fields(C &c, Visit &&visit)
{
    visit("name", c.name);
    visit("numLayers", c.numLayers);
    visit("hiddenSize", c.hiddenSize);
    visit("numHeads", c.numHeads);
    visit(kNumKvHeads, c.numKvHeads);
    visit("ffnHidden", c.ffnHidden);
    visit("vocabSize", c.vocabSize);
    visit("maxSeqLength", c.maxSeqLength);
    visit("mlp", c.mlp);
    visit("numExperts", c.numExperts);
    visit("topK", c.topK);
    visit("slidingWindow", c.slidingWindow);
}

template <MaybeConst<ParallelConfig> C, class Visit>
void
fields(C &p, Visit &&visit)
{
    visit("dataParallel", p.dataParallel);
    visit("tensorParallel", p.tensorParallel);
    visit("pipelineParallel", p.pipelineParallel);
    visit("sequenceParallel", p.sequenceParallel);
    visit("schedule", p.schedule);
    visit("microbatchSize", p.microbatchSize);
    visit("interleavedStages", p.interleavedStages);
    visit("expertParallel", p.expertParallel);
    visit("contextParallel", p.contextParallel);
}

// The trace pointer and collectiveAlgorithm are runtime state, not
// configuration, and stay out of the document.
template <MaybeConst<TrainingOptions> C, class Visit>
void
fields(C &o, Visit &&visit)
{
    visit("precision", o.precision);
    visit("recompute", o.recompute);
    visit("seqLength", o.seqLength);
    visit("dpOverlapFraction", o.dpOverlapFraction);
    visit("tpOverlapFraction", o.tpOverlapFraction);
    visit("flashAttention", o.flashAttention);
    visit("zeroStage", o.memory.zeroStage);
    visit(kActivationBytes, o.memory.activationBytes);
}

template <MaybeConst<InferenceOptions> C, class Visit>
void
fields(C &o, Visit &&visit)
{
    visit("precision", o.precision);
    visit("tensorParallel", o.tensorParallel);
    visit("pipelineParallel", o.pipelineParallel);
    visit("batch", o.batch);
    visit("promptLength", o.promptLength);
    visit("generateLength", o.generateLength);
    visit("flashAttention", o.flashAttention);
    visit(kKvPrecision, o.kvPrecision);
}

/** Every listed field of @p x, in list order. */
template <class T>
JsonValue
writeFields(const T &x)
{
    JsonValue j = JsonValue::object();
    fields(x, [&j](const char *key, const auto &m) {
        j.set(key, encode(m));
    });
    return j;
}

/** Each listed field present in @p j; absent ones keep their value. */
template <class T>
void
readFields(const JsonValue &j, T &x)
{
    fields(x, [&j](const char *key, auto &m) {
        if (j.has(key))
            decode(j.at(key), m);
    });
}

} // namespace

std::vector<std::string>
devicePresetNames()
{
    return sortedNames(kDevicePresets);
}

Device
devicePreset(const std::string &name)
{
    return known(findNamed(kDevicePresets, name), "device preset", name)();
}

std::vector<std::string>
modelPresetNames()
{
    return sortedNames(kModelPresets);
}

TransformerConfig
modelPreset(const std::string &name)
{
    return known(findNamed(kModelPresets, name), "model preset", name)();
}

std::vector<std::string>
systemPresetNames()
{
    return sortedNames(kSystemPresets);
}

System
systemPreset(const std::string &name, int num_nodes)
{
    return known(findNamed(kSystemPresets, name), "system preset",
                 name)(num_nodes);
}

// ---- Serialization -----------------------------------------------------

JsonValue toJson(const NetworkLink &link) { return writeFields(link); }

JsonValue toJson(const Device &dev) { return writeFields(dev); }

JsonValue
toJson(const System &sys)
{
    JsonValue j = JsonValue::object();
    j.set("device", toJson(sys.device));
    j.set("devicesPerNode",
          JsonValue::number(double(sys.devicesPerNode)));
    j.set("numNodes", JsonValue::number(double(sys.numNodes)));
    j.set("intraLink", toJson(sys.intraLink));
    j.set("interLink", toJson(sys.interLink));
    return j;
}

JsonValue toJson(const TransformerConfig &cfg) { return writeFields(cfg); }

JsonValue toJson(const ParallelConfig &par) { return writeFields(par); }

JsonValue
toJson(const TrainingMemory &mem)
{
    JsonValue j = JsonValue::object();
    j.set("weights", JsonValue::number(mem.weights));
    j.set("gradients", JsonValue::number(mem.gradients));
    j.set("optimizer", JsonValue::number(mem.optimizer));
    j.set("activations", JsonValue::number(mem.activations));
    j.set("total", JsonValue::number(mem.total()));
    return j;
}

JsonValue toJson(const TrainingOptions &opts) { return writeFields(opts); }

JsonValue toJson(const InferenceOptions &opts) { return writeFields(opts); }

JsonValue
toJson(const TrainingReport &rep)
{
    JsonValue j = JsonValue::object();
    j.set("timePerBatch", JsonValue::number(rep.timePerBatch));
    JsonValue t = JsonValue::object();
    t.set("forward", JsonValue::number(rep.time.forward));
    t.set("backward", JsonValue::number(rep.time.backward));
    t.set("recompute", JsonValue::number(rep.time.recompute));
    t.set("embedding", JsonValue::number(rep.time.embedding));
    t.set("tpComm", JsonValue::number(rep.time.tpComm));
    t.set("cpComm", JsonValue::number(rep.time.cpComm));
    t.set("epComm", JsonValue::number(rep.time.epComm));
    t.set("ppComm", JsonValue::number(rep.time.ppComm));
    t.set("dpComm", JsonValue::number(rep.time.dpComm));
    t.set("bubble", JsonValue::number(rep.time.bubble));
    t.set("optimizer", JsonValue::number(rep.time.optimizer));
    j.set("time", std::move(t));
    j.set("memory", toJson(rep.memory));
    j.set("microbatches",
          JsonValue::number(double(rep.microbatches)));
    j.set("bubbleFraction", JsonValue::number(rep.bubbleFraction));
    j.set("modelFlops", JsonValue::number(rep.modelFlops));
    j.set("mfu", JsonValue::number(rep.mfu));
    return j;
}

JsonValue
toJson(const InferenceReport &rep)
{
    auto phase = [](const PhaseReport &p) {
        JsonValue j = JsonValue::object();
        j.set("time", JsonValue::number(p.time));
        j.set("computeBoundGemmTime",
              JsonValue::number(p.computeBoundGemmTime));
        j.set("memoryBoundGemmTime",
              JsonValue::number(p.memoryBoundGemmTime));
        j.set("otherKernelTime",
              JsonValue::number(p.otherKernelTime));
        j.set("commTime", JsonValue::number(p.commTime));
        j.set("overheadTime", JsonValue::number(p.overheadTime));
        j.set("memoryTime", JsonValue::number(p.memoryTime));
        return j;
    };
    JsonValue j = JsonValue::object();
    j.set("totalLatency", JsonValue::number(rep.totalLatency));
    j.set("prefill", phase(rep.prefill));
    j.set("decode", phase(rep.decode));
    j.set("kvCacheBytes", JsonValue::number(rep.kvCacheBytes));
    j.set("weightBytes", JsonValue::number(rep.weightBytes));
    j.set("fitsDeviceMemory",
          JsonValue::boolean(rep.fitsDeviceMemory));
    return j;
}

JsonValue
toJson(const lint::Diagnostic &diag)
{
    JsonValue j = JsonValue::object();
    j.set("severity",
          JsonValue::string(lint::severityName(diag.severity)));
    j.set("rule", JsonValue::string(diag.ruleId));
    j.set("message", JsonValue::string(diag.message));
    if (!diag.hint.empty())
        j.set("hint", JsonValue::string(diag.hint));
    return j;
}

JsonValue
toJson(const lint::LintReport &report)
{
    JsonValue diags = JsonValue::array();
    for (const lint::Diagnostic &d : report.diagnostics())
        diags.push(toJson(d));
    JsonValue j = JsonValue::object();
    j.set("diagnostics", std::move(diags));
    j.set("errors",
          JsonValue::number(double(report.errorCount())));
    j.set("warnings",
          JsonValue::number(double(report.warningCount())));
    return j;
}

// ---- Deserialization -----------------------------------------------------

NetworkLink
linkFromJson(const JsonValue &j)
{
    NetworkLink link;
    if (j.has("preset")) {
        const std::string &name = j.at("preset").asString();
        link = known(findNamed(kLinkPresets, name), "link preset", name)();
    }
    readFields(j, link);
    link.validate();
    return link;
}

Device
deviceFromJson(const JsonValue &j)
{
    Device dev;
    if (j.has("preset"))
        dev = devicePreset(j.at("preset").asString());
    readFields(j, dev);
    dev.validate();
    return dev;
}

System
systemFromJson(const JsonValue &j)
{
    if (j.has("preset")) {
        System sys = systemPreset(
            j.at("preset").asString(),
            static_cast<int>(j.getInt("numNodes", 1)));
        if (j.has("device"))
            sys.device = deviceFromJson(j.at("device"));
        sys.validate();
        return sys;
    }
    System sys;
    sys.device = deviceFromJson(j.at("device"));
    sys.devicesPerNode =
        static_cast<int>(j.getInt("devicesPerNode", 8));
    sys.numNodes = static_cast<int>(j.getInt("numNodes", 1));
    sys.intraLink = linkFromJson(j.at("intraLink"));
    sys.interLink = linkFromJson(j.at("interLink"));
    sys.validate();
    return sys;
}

TransformerConfig
modelFromJson(const JsonValue &j)
{
    TransformerConfig cfg;
    if (j.has("preset"))
        cfg = modelPreset(j.at("preset").asString());
    readFields(j, cfg);
    // Reader-only default: no KV head count anywhere means
    // multi-head attention.
    if (cfg.numKvHeads == 0 && !j.has(kNumKvHeads))
        cfg.numKvHeads = cfg.numHeads;
    cfg.validate();
    return cfg;
}

ParallelConfig
parallelFromJson(const JsonValue &j)
{
    ParallelConfig par;
    readFields(j, par);
    return par;
}

TrainingOptions
trainingOptionsFromJson(const JsonValue &j)
{
    TrainingOptions opts;
    readFields(j, opts);
    // Reader-only defaults: the memory model follows flashAttention,
    // and sub-2-byte training stores 1-byte activations unless told.
    opts.memory.flashAttention = opts.flashAttention;
    if (!j.has(kActivationBytes) &&
        precisionBytes(opts.precision) < 2.0)
        opts.memory.activationBytes = 1.0;
    return opts;
}

InferenceOptions
inferenceOptionsFromJson(const JsonValue &j)
{
    InferenceOptions opts;
    readFields(j, opts);
    // Reader-only default: the KV cache is stored at the precision.
    if (!j.has(kKvPrecision))
        opts.kvPrecision = opts.precision;
    return opts;
}

} // namespace config
} // namespace optimus
