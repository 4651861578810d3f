/**
 * @file
 * Unit tests for the hardware abstraction: precisions, devices,
 * networks, systems and vendor presets.
 */

#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "hw/presets.h"
#include "util/error.h"
#include "util/units.h"

namespace optimus {
namespace {

TEST(Precision, Bytes)
{
    EXPECT_DOUBLE_EQ(precisionBytes(Precision::FP32), 4.0);
    EXPECT_DOUBLE_EQ(precisionBytes(Precision::TF32), 4.0);
    EXPECT_DOUBLE_EQ(precisionBytes(Precision::FP16), 2.0);
    EXPECT_DOUBLE_EQ(precisionBytes(Precision::BF16), 2.0);
    EXPECT_DOUBLE_EQ(precisionBytes(Precision::FP8), 1.0);
    EXPECT_DOUBLE_EQ(precisionBytes(Precision::FP4), 0.5);
    EXPECT_DOUBLE_EQ(precisionBytes(Precision::INT8), 1.0);
}

TEST(Precision, ParseRoundTrip)
{
    for (Precision p : {Precision::FP32, Precision::TF32,
                        Precision::FP16, Precision::BF16,
                        Precision::FP8, Precision::FP4,
                        Precision::INT8}) {
        EXPECT_EQ(parsePrecision(precisionName(p)), p);
    }
    EXPECT_EQ(parsePrecision("HALF"), Precision::FP16);
    EXPECT_THROW(parsePrecision("fp12"), ConfigError);
}

TEST(Device, A100PresetNumbers)
{
    Device d = presets::a100_80gb();
    EXPECT_DOUBLE_EQ(d.matrixFlops(Precision::FP16), 312 * TFLOPS);
    EXPECT_DOUBLE_EQ(d.dram().bandwidth, 1.9 * TBps);
    EXPECT_DOUBLE_EQ(d.dram().capacity, 80 * GiB);
    EXPECT_EQ(d.mem.size(), 3u);
    EXPECT_EQ(d.level("L2").name, "L2");
    EXPECT_THROW(d.level("L3"), ConfigError);
}

TEST(Device, UnsupportedPrecisionThrows)
{
    Device d = presets::a100_80gb();
    EXPECT_FALSE(d.supportsMatrix(Precision::FP8));
    EXPECT_THROW(d.matrixFlops(Precision::FP8), ConfigError);
    // Vector fallback: unknown precision falls back to fp32.
    EXPECT_DOUBLE_EQ(d.vectorFlops(Precision::FP8),
                     d.vectorFlops(Precision::FP32));
}

TEST(Device, ValidateRejectsBrokenHierarchy)
{
    Device d = presets::a100_80gb();
    d.mem[1].capacity = d.mem[0].capacity * 2;  // L2 bigger than DRAM
    EXPECT_THROW(d.validate(), ConfigError);

    d = presets::a100_80gb();
    d.mem[0].bandwidth = 0.0;
    EXPECT_THROW(d.validate(), ConfigError);

    d = presets::a100_80gb();
    d.matrixMaxEfficiency = 1.5;
    EXPECT_THROW(d.validate(), ConfigError);
}

/** what() of the ConfigError @p f throws, or a marker if none. */
template <class F>
std::string
configErrorText(F &&f)
{
    try {
        f();
    } catch (const ConfigError &e) {
        return e.what();
    }
    return "(no ConfigError)";
}

/** what() of validating an A100 after @p edit is applied to it. */
template <class Edit>
std::string
deviceError(Edit &&edit)
{
    Device d = presets::a100_80gb();
    edit(d);
    return configErrorText([&] { d.validate(); });
}

TEST(Device, ValidateMessagesAreExact)
{
    constexpr double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EQ(deviceError([](Device &d) { d.name.clear(); }),
              "config error: device needs a name");
    EXPECT_EQ(deviceError([](Device &d) { d.matrixThroughput.clear(); }),
              "config error: A100-80GB: needs at least one matrix "
              "throughput entry");
    EXPECT_EQ(deviceError([](Device &d) { d.mem.clear(); }),
              "config error: A100-80GB: needs at least one memory level");
    EXPECT_EQ(deviceError([](Device &d) {
                  d.matrixThroughput[Precision::FP16] = 0.0;
              }),
              "config error: A100-80GB matrix flops (fp16) must be "
              "positive, got 0.000000");
    EXPECT_EQ(deviceError([](Device &d) {
                  d.vectorThroughput[Precision::BF16] = -1.0;
              }),
              "config error: A100-80GB vector flops (bf16) must be "
              "positive, got -1.000000");
    EXPECT_EQ(deviceError([](Device &d) { d.mem[1].name.clear(); }),
              "config error: A100-80GB: memory level needs a name");
    EXPECT_EQ(deviceError([](Device &d) { d.mem[2].capacity = nan; }),
              "config error: A100-80GB SMEM capacity must be positive, "
              "got nan");
    EXPECT_EQ(deviceError([](Device &d) { d.mem[0].bandwidth = 0.0; }),
              "config error: A100-80GB DRAM bandwidth must be positive, "
              "got 0.000000");
    EXPECT_EQ(deviceError([](Device &d) { d.mem[1].utilization = 1.5; }),
              "config error: A100-80GB L2 utilization must be in (0,1]");
    EXPECT_EQ(deviceError([](Device &d) {
                  d.mem[1].capacity = d.mem[0].capacity * 2;
              }),
              "config error: A100-80GB: memory level L2 must be smaller "
              "than DRAM");
    EXPECT_EQ(deviceError([](Device &d) { d.matrixMaxEfficiency = 0.0; }),
              "config error: A100-80GB: matrixMaxEfficiency must be in "
              "(0,1]");
    EXPECT_EQ(deviceError([](Device &d) { d.gemmKHalf = nan; }),
              "config error: A100-80GB: gemmKHalf must be non-negative");
    EXPECT_EQ(deviceError([](Device &d) { d.gemvDramUtilization = 2.0; }),
              "config error: A100-80GB: gemvDramUtilization must be in "
              "(0,1]");
    EXPECT_EQ(deviceError([](Device &d) { d.kernelLaunchOverhead = -1e-6; }),
              "config error: A100-80GB: kernelLaunchOverhead must be "
              "non-negative");
    // Checks run in order: the first failing field is the one named.
    EXPECT_EQ(deviceError([](Device &d) {
                  d.gemmKHalf = -1.0;
                  d.mem[0].bandwidth = -1.0;
              }),
              "config error: A100-80GB DRAM bandwidth must be positive, "
              "got -1.000000");
}

TEST(Network, ValidateMessagesAreExact)
{
    auto linkError = [](auto edit) {
        NetworkLink l = presets::nvlink4();
        edit(l);
        return configErrorText([&] { l.validate(); });
    };
    EXPECT_EQ(linkError([](NetworkLink &l) { l.name.clear(); }),
              "config error: network link needs a name");
    EXPECT_EQ(linkError([](NetworkLink &l) { l.bandwidth = 0.0; }),
              "config error: NVLink4 bandwidth must be positive, got "
              "0.000000");
    EXPECT_EQ(linkError([](NetworkLink &l) { l.latency = -1.0; }),
              "config error: NVLink4: latency must be non-negative");
    EXPECT_EQ(linkError([](NetworkLink &l) {
                  l.halfUtilVolume = std::numeric_limits<double>::quiet_NaN();
              }),
              "config error: NVLink4: halfUtilVolume must be non-negative");
    EXPECT_EQ(linkError([](NetworkLink &l) { l.maxUtilization = 1.01; }),
              "config error: NVLink4: maxUtilization must be in (0,1]");
    EXPECT_EQ(linkError([](NetworkLink &l) { l.collectiveOverhead = -1.0; }),
              "config error: NVLink4: collectiveOverhead must be "
              "non-negative");
    EXPECT_EQ(linkError([](NetworkLink &) {}), "(no ConfigError)");
}

TEST(Device, ValidateRejectsTooManyMemoryLevels)
{
    Device d = presets::a100_80gb();
    d.mem.push_back({"REG", 256 * KiB, 100 * TBps, 0.8});
    ASSERT_EQ(d.mem.size(), kMaxMemoryLevels);
    EXPECT_NO_THROW(d.validate());
    d.mem.push_back({"ACC", 64 * KiB, 200 * TBps, 0.8});
    EXPECT_EQ(configErrorText([&] { d.validate(); }),
              "config error: A100-80GB: at most 4 memory levels are "
              "supported, got 5");
}

TEST(Device, DramMayOutrunCache)
{
    // Fig. 9 regime: HBMX DRAM faster than the A100 L2 must validate.
    Device d = presets::withDram(presets::a100_80gb(), "HBMX",
                                 6.8 * TBps, 192 * GiB);
    EXPECT_NO_THROW(d.validate());
    EXPECT_GT(d.dram().bandwidth, d.level("L2").bandwidth);
}

TEST(Device, GenerationOrdering)
{
    double a100 = presets::a100_80gb().matrixFlops(Precision::FP16);
    double h100 = presets::h100_sxm().matrixFlops(Precision::FP16);
    double b200 = presets::b200().matrixFlops(Precision::FP16);
    EXPECT_LT(a100, h100);
    EXPECT_LT(h100, b200);
    EXPECT_TRUE(presets::b200().supportsMatrix(Precision::FP4));
    EXPECT_FALSE(presets::h100_sxm().supportsMatrix(Precision::FP4));
}

TEST(Network, UtilizationCurveSaturates)
{
    NetworkLink l = presets::nvlink3();
    double small = l.utilization(1 * KB);
    double large = l.utilization(1 * GB);
    EXPECT_LT(small, 0.05);
    EXPECT_GT(large, 0.75);
    EXPECT_LE(large, l.maxUtilization);
    EXPECT_LT(l.effectiveBandwidth(1 * KB),
              l.effectiveBandwidth(1 * GB));
}

TEST(Network, ZeroVolumeGetsCeiling)
{
    NetworkLink l = presets::ndrInfiniBand();
    EXPECT_DOUBLE_EQ(l.utilization(0.0), l.maxUtilization);
    EXPECT_THROW(l.utilization(-1.0), ConfigError);
}

TEST(Network, ValidateRejectsBadFields)
{
    NetworkLink l = presets::nvlink4();
    l.bandwidth = -1.0;
    EXPECT_THROW(l.validate(), ConfigError);
    l = presets::nvlink4();
    l.maxUtilization = 0.0;
    EXPECT_THROW(l.validate(), ConfigError);
}

TEST(System, TotalsAndLinkSelection)
{
    System sys = presets::dgxA100(4);
    EXPECT_EQ(sys.totalDevices(), 32);
    EXPECT_EQ(sys.linkForGroup(8).name, "NVLink3");
    EXPECT_EQ(sys.linkForGroup(9).name, "HDR-IB");
    EXPECT_THROW(sys.linkForGroup(0), ConfigError);
}

TEST(System, NvsMatchesIntraNodeRate)
{
    System sys = presets::dgxB200Nvs(8);
    EXPECT_DOUBLE_EQ(sys.interLink.bandwidth,
                     sys.intraLink.bandwidth * 8);
}

TEST(System, MakeSystemValidates)
{
    EXPECT_THROW(makeSystem(presets::a100_80gb(), 0, 1,
                            presets::nvlink3(),
                            presets::hdrInfiniBand()),
                 ConfigError);
}

} // namespace
} // namespace optimus
