/**
 * @file
 * Unit tests for the config (de)serialization layer and the preset
 * registries.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "config/serialize.h"
#include "hw/presets.h"
#include "util/error.h"
#include "util/units.h"
#include "workload/presets.h"

namespace optimus {
namespace {

TEST(Registry, KnowsAllPresets)
{
    EXPECT_EQ(config::devicePresetNames().size(), 7u);
    EXPECT_EQ(config::systemPresetNames().size(), 8u);
    EXPECT_EQ(config::modelPresetNames().size(), 13u);
    EXPECT_EQ(config::devicePreset("a100-80gb").name, "A100-80GB");
    EXPECT_EQ(config::modelPreset("llama2-70b").numKvHeads, 8);
    EXPECT_EQ(config::systemPreset("dgx-h100", 4).totalDevices(), 32);
    EXPECT_THROW(config::devicePreset("tpu-v9"), ConfigError);
    EXPECT_THROW(config::modelPreset("gpt-5"), ConfigError);
    EXPECT_THROW(config::systemPreset("dgx-x", 1), ConfigError);
}

TEST(Serialize, DeviceRoundTrips)
{
    Device d = presets::h100_sxm();
    Device back = config::deviceFromJson(config::toJson(d));
    EXPECT_EQ(back.name, d.name);
    EXPECT_DOUBLE_EQ(back.matrixFlops(Precision::FP8),
                     d.matrixFlops(Precision::FP8));
    ASSERT_EQ(back.mem.size(), d.mem.size());
    for (size_t i = 0; i < d.mem.size(); ++i) {
        EXPECT_DOUBLE_EQ(back.mem[i].bandwidth, d.mem[i].bandwidth);
        EXPECT_DOUBLE_EQ(back.mem[i].capacity, d.mem[i].capacity);
    }
    EXPECT_DOUBLE_EQ(back.gemmKHalf, d.gemmKHalf);
}

TEST(Serialize, ModelRoundTrips)
{
    TransformerConfig m = models::llama2_70b();
    TransformerConfig back = config::modelFromJson(config::toJson(m));
    EXPECT_EQ(back.name, m.name);
    EXPECT_EQ(back.numLayers, m.numLayers);
    EXPECT_EQ(back.numKvHeads, 8);
    EXPECT_EQ(back.mlp, MlpKind::SwiGlu);
    EXPECT_DOUBLE_EQ(back.parameterCount(), m.parameterCount());
}

TEST(Serialize, SystemRoundTrips)
{
    System s = presets::dgxB200Nvs(16);
    System back = config::systemFromJson(config::toJson(s));
    EXPECT_EQ(back.totalDevices(), s.totalDevices());
    EXPECT_DOUBLE_EQ(back.interLink.bandwidth,
                     s.interLink.bandwidth);
    EXPECT_DOUBLE_EQ(back.device.dram().bandwidth,
                     s.device.dram().bandwidth);
}

TEST(Serialize, ParallelRoundTrips)
{
    ParallelConfig p;
    p.dataParallel = 4;
    p.tensorParallel = 8;
    p.pipelineParallel = 2;
    p.sequenceParallel = true;
    p.schedule = PipelineSchedule::Interleaved1F1B;
    p.interleavedStages = 6;
    ParallelConfig back =
        config::parallelFromJson(config::toJson(p));
    EXPECT_EQ(back.label(), p.label());
    EXPECT_EQ(back.schedule, p.schedule);
    EXPECT_EQ(back.interleavedStages, 6);
}

TEST(Deserialize, PresetReference)
{
    JsonValue j = JsonValue::parse(R"({"preset": "a100-80gb"})");
    Device d = config::deviceFromJson(j);
    EXPECT_EQ(d.name, "A100-80GB");
}

TEST(Deserialize, PresetWithOverride)
{
    // Start from the A100 and swap the DRAM bandwidth: the Fig. 9
    // style technology swap expressed as a config file.
    JsonValue j = JsonValue::parse(R"({
        "preset": "a100-80gb",
        "name": "A100-HBM3E",
        "mem": [
            {"name": "DRAM", "capacity": 1.51e11,
             "bandwidth": 4.8e12, "utilization": 0.85},
            {"name": "L2", "capacity": 4.19e7, "bandwidth": 5.5e12},
            {"name": "SMEM", "capacity": 2.1e7, "bandwidth": 1.9e13}
        ]
    })");
    Device d = config::deviceFromJson(j);
    EXPECT_EQ(d.name, "A100-HBM3E");
    EXPECT_DOUBLE_EQ(d.dram().bandwidth, 4.8e12);
    // Non-overridden fields keep the preset values.
    EXPECT_DOUBLE_EQ(d.matrixFlops(Precision::FP16), 312 * TFLOPS);
}

TEST(Deserialize, FullSystemFromScratch)
{
    JsonValue j = JsonValue::parse(R"({
        "device": {"preset": "h100-sxm"},
        "devicesPerNode": 4,
        "numNodes": 2,
        "intraLink": {"preset": "nvlink4"},
        "interLink": {"preset": "ndr-ib", "bandwidth": 2.0e11}
    })");
    System sys = config::systemFromJson(j);
    EXPECT_EQ(sys.totalDevices(), 8);
    EXPECT_DOUBLE_EQ(sys.interLink.bandwidth, 2.0e11);
    EXPECT_EQ(sys.intraLink.name, "NVLink4");
}

TEST(Deserialize, OptionsFromJson)
{
    TrainingOptions t = config::trainingOptionsFromJson(
        JsonValue::parse(R"({"precision": "fp8",
                             "recompute": "selective",
                             "seqLength": 4096,
                             "flashAttention": true,
                             "zeroStage": 2})"));
    EXPECT_EQ(t.precision, Precision::FP8);
    EXPECT_EQ(t.recompute, Recompute::Selective);
    EXPECT_EQ(t.seqLength, 4096);
    EXPECT_TRUE(t.flashAttention);
    EXPECT_EQ(t.memory.zeroStage, 2);
    EXPECT_DOUBLE_EQ(t.memory.activationBytes, 1.0);

    InferenceOptions i = config::inferenceOptionsFromJson(
        JsonValue::parse(R"({"tensorParallel": 4, "batch": 16,
                             "promptLength": 512,
                             "generateLength": 64})"));
    EXPECT_EQ(i.tensorParallel, 4);
    EXPECT_EQ(i.batch, 16);
    EXPECT_EQ(i.promptLength, 512);
    EXPECT_EQ(i.generateLength, 64);
}

TEST(Deserialize, ReaderOnlyDefaults)
{
    // numKvHeads defaults to numHeads unless the document or the
    // preset sets it; an explicit 0 is still rejected.
    const char *mha = R"({"name": "m", "numLayers": 2, "hiddenSize": 64,
                          "numHeads": 4, "ffnHidden": 256,
                          "vocabSize": 100})";
    EXPECT_EQ(config::modelFromJson(JsonValue::parse(mha)).numKvHeads, 4);
    EXPECT_EQ(config::modelFromJson(JsonValue::parse(
                  R"({"preset": "llama2-70b", "numHeads": 32})"))
                  .numKvHeads,
              8);
    EXPECT_THROW(config::modelFromJson(JsonValue::parse(
                     R"({"preset": "gpt-7b", "numKvHeads": 0})")),
                 ConfigError);

    // Sub-2-byte training stores 1-byte activations unless told.
    auto training = [](const char *text) {
        return config::trainingOptionsFromJson(JsonValue::parse(text));
    };
    EXPECT_DOUBLE_EQ(training(R"({"precision": "fp8"})")
                         .memory.activationBytes,
                     1.0);
    EXPECT_DOUBLE_EQ(training(R"({"precision": "fp8",
                                  "activationBytes": 2})")
                         .memory.activationBytes,
                     2.0);
    EXPECT_DOUBLE_EQ(training("{}").memory.activationBytes, 2.0);

    // The memory model follows flashAttention.
    EXPECT_TRUE(training(R"({"flashAttention": true})")
                    .memory.flashAttention);

    // The KV cache is stored at the precision unless told.
    auto inference = [](const char *text) {
        return config::inferenceOptionsFromJson(JsonValue::parse(text));
    };
    EXPECT_EQ(inference(R"({"precision": "fp8"})").kvPrecision,
              Precision::FP8);
    EXPECT_EQ(inference(R"({"precision": "fp8", "kvPrecision": "fp16"})")
                  .kvPrecision,
              Precision::FP16);
}

/** The ConfigError text @p f throws, or "no error". */
template <class F>
std::string
configErrorOf(F f)
{
    try {
        f();
    } catch (const ConfigError &e) {
        return e.what();
    }
    return "no error";
}

TEST(Deserialize, RejectsUnknownEnumValues)
{
    EXPECT_EQ(configErrorOf([] {
                  config::trainingOptionsFromJson(
                      JsonValue::parse(R"({"recompute": "sometimes"})"));
              }),
              "config error: unknown recompute strategy: sometimes");
    EXPECT_EQ(configErrorOf([] {
                  config::trainingOptionsFromJson(
                      JsonValue::parse(R"({"precision": "fp7"})"));
              }),
              "config error: unknown precision name: fp7");
    EXPECT_EQ(configErrorOf([] {
                  config::parallelFromJson(
                      JsonValue::parse(R"({"schedule": "zigzag"})"));
              }),
              "config error: unknown pipeline schedule: zigzag");
    EXPECT_EQ(configErrorOf([] {
                  config::modelFromJson(JsonValue::parse(
                      R"({"preset": "gpt-7b", "mlp": "relu6"})"));
              }),
              "config error: unknown mlp kind: relu6");
    EXPECT_EQ(configErrorOf([] {
                  config::linkFromJson(JsonValue::parse(
                      R"({"preset": "carrier-pigeon"})"));
              }),
              "config error: unknown link preset: carrier-pigeon");
    EXPECT_EQ(configErrorOf([] { config::devicePreset("tpu-v9"); }),
              "config error: unknown device preset: tpu-v9");
    EXPECT_EQ(configErrorOf([] { config::modelPreset("gpt-5"); }),
              "config error: unknown model preset: gpt-5");
    EXPECT_EQ(configErrorOf([] { config::systemPreset("dgx-x", 1); }),
              "config error: unknown system preset: dgx-x");
}

TEST(Deserialize, RequiredKeysStayRequired)
{
    // A memory level needs name, capacity and bandwidth; an explicit
    // system needs its device and both links.
    EXPECT_EQ(configErrorOf([] {
                  config::deviceFromJson(JsonValue::parse(
                      R"({"preset": "a100-80gb",
                          "mem": [{"name": "DRAM", "capacity": 1e9}]})"));
              }),
              "config error: json: missing member \"bandwidth\"");
    EXPECT_EQ(configErrorOf([] {
                  config::systemFromJson(JsonValue::parse(
                      R"({"device": {"preset": "h100-sxm"},
                          "intraLink": {"preset": "nvlink4"}})"));
              }),
              "config error: json: missing member \"interLink\"");
    EXPECT_EQ(configErrorOf([] {
                  config::systemFromJson(
                      JsonValue::parse(R"({"numNodes": 2})"));
              }),
              "config error: json: missing member \"device\"");
}

TEST(Registry, ListsPresetsInNameOrder)
{
    using Names = std::vector<std::string>;
    EXPECT_EQ(config::devicePresetNames(),
              (Names{"a100-80gb", "b100", "b200", "h100-sxm", "h200-sxm",
                     "tpu-v4", "tpu-v5p"}));
    EXPECT_EQ(config::modelPresetNames(),
              (Names{"gpt-1008b", "gpt-175b", "gpt-22b", "gpt-310b",
                     "gpt-530b", "gpt-7b", "llama2-13b", "llama2-70b",
                     "llama2-7b", "llama3-405b", "llama3-70b",
                     "llama3-8b", "mixtral-8x7b"}));
    EXPECT_EQ(config::systemPresetNames(),
              (Names{"dgx-a100", "dgx-b200", "dgx-b200-nvs", "dgx-h100",
                     "dgx-h100-nvs", "dgx-h200-nvs", "tpu-v4-pod",
                     "tpu-v5p-pod"}));
}

/**
 * Parse -> serialize -> parse reaches a fixed point: the text written
 * for @p x reads back into a value that writes the same text.
 */
template <class T, class Read>
void
expectTextFixedPoint(const T &x, Read read)
{
    const std::string text = config::toJson(x).dump();
    EXPECT_EQ(config::toJson(read(JsonValue::parse(text))).dump(), text);
}

TEST(RoundTrip, EveryPresetIsATextFixedPoint)
{
    for (const std::string &name : config::devicePresetNames()) {
        SCOPED_TRACE(name);
        expectTextFixedPoint(config::devicePreset(name),
                             config::deviceFromJson);
    }
    for (const std::string &name : config::modelPresetNames()) {
        SCOPED_TRACE(name);
        expectTextFixedPoint(config::modelPreset(name),
                             config::modelFromJson);
    }
    for (const std::string &name : config::systemPresetNames()) {
        SCOPED_TRACE(name);
        expectTextFixedPoint(config::systemPreset(name, 2),
                             config::systemFromJson);
    }
    expectTextFixedPoint(presets::ndrInfiniBand(), config::linkFromJson);
}

ParallelConfig
nonDefaultParallel()
{
    ParallelConfig p;
    p.dataParallel = 4;
    p.tensorParallel = 8;
    p.pipelineParallel = 2;
    p.sequenceParallel = true;
    p.schedule = PipelineSchedule::Interleaved1F1B;
    p.microbatchSize = 2;
    p.interleavedStages = 6;
    p.expertParallel = 2;
    p.contextParallel = 2;
    return p;
}

TrainingOptions
trainingAt(Precision precision)
{
    TrainingOptions t;
    t.precision = precision;
    t.recompute = Recompute::Selective;
    t.seqLength = 4096;
    t.dpOverlapFraction = 0.5;
    t.tpOverlapFraction = 0.25;
    t.flashAttention = true;
    t.memory.flashAttention = true;
    t.memory.zeroStage = 1;
    t.memory.activationBytes = std::max(1.0, precisionBytes(precision));
    return t;
}

InferenceOptions
nonDefaultInference()
{
    InferenceOptions i;
    i.precision = Precision::BF16;
    i.tensorParallel = 4;
    i.pipelineParallel = 2;
    i.batch = 16;
    i.promptLength = 512;
    i.generateLength = 64;
    i.flashAttention = true;
    i.kvPrecision = Precision::FP8;
    return i;
}

TEST(RoundTrip, MappingsAndOptionsAreTextFixedPoints)
{
    expectTextFixedPoint(nonDefaultParallel(), config::parallelFromJson);
    for (Precision p : {Precision::FP16, Precision::FP8, Precision::FP32}) {
        SCOPED_TRACE(precisionName(p));
        expectTextFixedPoint(trainingAt(p),
                             config::trainingOptionsFromJson);
    }
    expectTextFixedPoint(nonDefaultInference(),
                         config::inferenceOptionsFromJson);
}

JsonValue
readExampleConfig(const std::string &file)
{
    std::ifstream in(std::string(OPTIMUS_EXAMPLE_CONFIGS) + "/" + file);
    EXPECT_TRUE(in.good()) << file;
    std::stringstream ss;
    ss << in.rdbuf();
    return JsonValue::parse(ss.str());
}

TEST(RoundTrip, ExampleConfigsReadWriteRead)
{
    for (const char *file : {"train_gpt175b_dgxa100.json",
                             "infer_llama70b_fp8kv.json",
                             "custom_hbm3e_a100.json"}) {
        SCOPED_TRACE(file);
        const JsonValue cfg = readExampleConfig(file);
        // Read, write, and read the written text again.
        auto check = [&](const char *key, auto read) {
            if (cfg.has(key))
                expectTextFixedPoint(read(cfg.at(key)), read);
        };
        check("model", config::modelFromJson);
        check("system", config::systemFromJson);
        check("parallel", config::parallelFromJson);
        check("training", config::trainingOptionsFromJson);
        check("inference", config::inferenceOptionsFromJson);
    }
}

/** A small device with every serialized field off its default. */
Device
tinyDevice()
{
    Device d;
    d.name = "Tiny";
    d.matrixThroughput = {{Precision::FP16, 1e12},
                          {Precision::FP8, 2e12}};
    d.vectorThroughput = {{Precision::FP32, 5e10}};
    d.mem = {{"DRAM", 8e9, 5e11, 0.8}, {"SMEM", 1e6, 4e12, 0.9}};
    d.matrixMaxEfficiency = 0.7;
    d.gemmKHalf = 300;
    d.gemvDramUtilization = 0.6;
    d.kernelLaunchOverhead = 4e-6;
    return d;
}

NetworkLink
tinyLink()
{
    NetworkLink l;
    l.name = "Wire";
    l.bandwidth = 1e11;
    l.latency = 2e-6;
    l.halfUtilVolume = 1e6;
    l.maxUtilization = 0.8;
    l.collectiveOverhead = 5e-6;
    return l;
}

TEST(Serialize, OutputBytesArePinned)
{
    // A RunRecord's canonical config is this text and its fingerprint
    // hashes it, so a change here changes every fingerprint.
    const std::string link =
        R"({"name":"Wire","bandwidth":100000000000,"latency":2e-06,)"
        R"("halfUtilVolume":1000000,"maxUtilization":0.8,)"
        R"("collectiveOverhead":5e-06})";
    const std::string device =
        R"({"name":"Tiny","matrixThroughput":{"fp16":1000000000000,)"
        R"("fp8":2000000000000},"vectorThroughput":)"
        R"({"fp32":50000000000},"mem":[{"name":"DRAM",)"
        R"("capacity":8000000000,"bandwidth":500000000000,)"
        R"("utilization":0.8},{"name":"SMEM","capacity":1000000,)"
        R"("bandwidth":4000000000000,"utilization":0.9}],)"
        R"("matrixMaxEfficiency":0.7,"gemmKHalf":300,)"
        R"("gemvDramUtilization":0.6,"kernelLaunchOverhead":4e-06})";
    EXPECT_EQ(config::toJson(tinyLink()).dump(), link);
    EXPECT_EQ(config::toJson(tinyDevice()).dump(), device);

    System sys;
    sys.device = tinyDevice();
    sys.devicesPerNode = 4;
    sys.numNodes = 2;
    sys.intraLink = tinyLink();
    sys.interLink = tinyLink();
    EXPECT_EQ(config::toJson(sys).dump(),
              R"({"device":)" + device +
                  R"(,"devicesPerNode":4,"numNodes":2,"intraLink":)" +
                  link + R"(,"interLink":)" + link + "}");

    TransformerConfig model = models::mixtral8x7b();
    model.slidingWindow = 4096;
    EXPECT_EQ(config::toJson(model).dump(),
              R"({"name":"Mixtral-8x7B","numLayers":32,)"
              R"("hiddenSize":4096,"numHeads":32,"numKvHeads":8,)"
              R"("ffnHidden":14336,"vocabSize":32000,)"
              R"("maxSeqLength":32768,"mlp":"swiglu","numExperts":8,)"
              R"("topK":2,"slidingWindow":4096})");
    EXPECT_EQ(config::toJson(nonDefaultParallel()).dump(),
              R"({"dataParallel":4,"tensorParallel":8,)"
              R"("pipelineParallel":2,"sequenceParallel":true,)"
              R"("schedule":"interleaved","microbatchSize":2,)"
              R"("interleavedStages":6,"expertParallel":2,)"
              R"("contextParallel":2})");
    EXPECT_EQ(config::toJson(trainingAt(Precision::FP8)).dump(),
              R"({"precision":"fp8","recompute":"selective",)"
              R"("seqLength":4096,"dpOverlapFraction":0.5,)"
              R"("tpOverlapFraction":0.25,"flashAttention":true,)"
              R"("zeroStage":1,"activationBytes":1})");
    EXPECT_EQ(config::toJson(nonDefaultInference()).dump(),
              R"({"precision":"bf16","tensorParallel":4,)"
              R"("pipelineParallel":2,"batch":16,"promptLength":512,)"
              R"("generateLength":64,"flashAttention":true,)"
              R"("kvPrecision":"fp8"})");
}

TEST(Serialize, ReportsAreWellFormed)
{
    System sys = presets::dgxA100(8);
    ParallelConfig par;
    par.tensorParallel = 8;
    par.pipelineParallel = 8;
    TrainingReport rep =
        evaluateTraining(models::gpt175b(), sys, par, 64, {});
    JsonValue j = config::toJson(rep);
    // Re-parse the dump to prove it is valid JSON with the expected
    // members.
    JsonValue back = JsonValue::parse(j.dump(2));
    EXPECT_NEAR(back.at("timePerBatch").asNumber(), rep.timePerBatch,
                1e-9);
    EXPECT_NEAR(back.at("time").at("forward").asNumber(),
                rep.time.forward, 1e-9);
    EXPECT_NEAR(back.at("memory").at("total").asNumber(),
                rep.memory.total(), 1.0);

    InferenceOptions iopts;
    InferenceReport irep =
        evaluateInference(models::llama2_13b(), sys, iopts);
    JsonValue ij = config::toJson(irep);
    JsonValue iback = JsonValue::parse(ij.dump());
    EXPECT_NEAR(iback.at("totalLatency").asNumber(),
                irep.totalLatency, 1e-9);
    EXPECT_TRUE(iback.at("fitsDeviceMemory").asBool());
}

} // namespace
} // namespace optimus
