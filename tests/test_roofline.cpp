/**
 * @file
 * Unit tests for the hierarchical roofline engines: tile search, GEMM
 * estimation, GEMV utilization models and stream kernels.
 */

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "hw/presets.h"
#include "roofline/gemm.h"
#include "roofline/gemv.h"
#include "roofline/stream.h"
#include "util/error.h"
#include "util/units.h"
#include "workload/graph.h"
#include "workload/presets.h"

namespace optimus {
namespace {

TEST(TileSearch, WholeProblemFitsCacheGivesCompulsoryTraffic)
{
    GemmShape s{256, 256, 256, Precision::FP16};
    // 256^2 * 3 * 2B = 384 KiB working set; give it 4 MiB.
    TileChoice t = searchTile(s, 4 * MiB, 0.5);
    double compulsory = 2.0 * (256.0 * 256 + 256.0 * 256 +
                               2.0 * 256 * 256);
    EXPECT_DOUBLE_EQ(t.traffic, compulsory);
}

TEST(TileSearch, SmallerCacheMeansMoreTraffic)
{
    GemmShape s{8192, 8192, 8192, Precision::FP16};
    double big = searchTile(s, 40 * MiB).traffic;
    double small = searchTile(s, 1 * MiB).traffic;
    double tiny = searchTile(s, 64 * KiB).traffic;
    EXPECT_LT(big, small);
    EXPECT_LT(small, tiny);
}

TEST(TileSearch, DegenerateCacheFallsBackToStreaming)
{
    GemmShape s{128, 128, 128, Precision::FP16};
    TileChoice t = searchTile(s, 64.0, 0.5);  // absurdly small cache
    // Streaming bound at the degenerate 1x1x1 tile: every A and B
    // element refetched per use, and the single-element C chunk
    // read+written once per k step — the same formula the search
    // scores finite tiles with.
    double stream = 2.0 * (128.0 * 128 * 128 * 2 +
                           2.0 * 128 * 128 * 128);
    EXPECT_DOUBLE_EQ(t.traffic, stream);
}

TEST(TileSearch, KSplitTrafficCountsOutputRevisits)
{
    // A cache that cannot hold full-k tiles forces tk < k; the C
    // term must then scale with ceil(k/tk) rather than staying at
    // 2*m*n (the pre-fix model silently ignored k-splitting).
    GemmShape s{4096, 4096, 4096, Precision::FP16};
    TileChoice t = searchTile(s, 1 * MiB, 0.5);
    ASSERT_GT(t.tk, 0);
    ASSERT_LT(t.tk, s.k);
    double chunks = std::ceil(double(s.k) / double(t.tk));
    double expected =
        2.0 * (double(s.m) * s.k *
                   std::ceil(double(s.n) / double(t.tn)) +
               double(s.k) * s.n *
                   std::ceil(double(s.m) / double(t.tm)) +
               2.0 * double(s.m) * s.n * chunks);
    EXPECT_DOUBLE_EQ(t.traffic, expected);
}

TEST(TileSearch, TileRespectsCapacity)
{
    GemmShape s{4096, 4096, 4096, Precision::FP16};
    TileChoice t = searchTile(s, 1 * MiB, 0.5);
    double footprint = (double(t.tm) * t.tk + double(t.tk) * t.tn +
                        double(t.tm) * t.tn) * 2.0;
    EXPECT_LE(footprint, 1 * MiB * 0.5 + 1.0);
}

TEST(ShapeEfficiency, QuantizationPenalty)
{
    EXPECT_DOUBLE_EQ(
        shapeEfficiency({4096, 4096, 4096, Precision::FP16}), 1.0);
    double skinny = shapeEfficiency({1, 4096, 4096, Precision::FP16});
    EXPECT_NEAR(skinny, 1.0 / 16.0, 1e-12);
    double odd = shapeEfficiency({200, 4096, 4096, Precision::FP16});
    EXPECT_GT(odd, 0.9);
    EXPECT_LT(odd, 1.0);
}

TEST(Gemm, FatGemmIsComputeBoundOnA100)
{
    Device dev = presets::a100_80gb();
    GemmShape s{8192, 8192, 8192, Precision::FP16};
    KernelEstimate est = estimateGemm(dev, s, "fat");
    EXPECT_TRUE(est.computeBound());
    // Time is at least FLOPs / peak and not absurdly larger.
    double ideal = est.flops / dev.matrixFlops(Precision::FP16);
    EXPECT_GE(est.time, ideal);
    EXPECT_LE(est.time, ideal * 2.5);
}

TEST(Gemm, SkinnyGemmIsDramBound)
{
    Device dev = presets::a100_80gb();
    GemmShape s{1, 4096, 4096, Precision::FP16};
    KernelEstimate est = estimateGemm(dev, s, "skinny");
    EXPECT_TRUE(est.dramBound());
    EXPECT_EQ(est.boundName(dev), "DRAM");
    // Weight matrix dominates the traffic.
    double weight_bytes = 4096.0 * 4096.0 * 2.0;
    EXPECT_NEAR(est.bytesPerLevel[0], weight_bytes,
                0.02 * weight_bytes);
}

TEST(Gemm, SkinnyUsesGemvUtilization)
{
    Device dev = presets::a100_80gb();
    GemmShape s{1, 8192, 8192, Precision::FP16};
    KernelEstimate est = estimateGemm(dev, s, "skinny");
    double expected = est.bytesPerLevel[0] /
                      (dev.dram().bandwidth * dev.gemvDramUtilization);
    EXPECT_NEAR(est.memTimePerLevel[0], expected, expected * 1e-9);
}

TEST(Gemm, FasterDeviceIsFaster)
{
    GemmShape s{4096, 4096, 4096, Precision::FP16};
    double a = estimateGemm(presets::a100_80gb(), s).time;
    double h = estimateGemm(presets::h100_sxm(), s).time;
    EXPECT_LT(h, a);
}

TEST(Gemm, Fp8DoublesThroughputOnH100)
{
    Device dev = presets::h100_sxm();
    GemmShape s16{8192, 8192, 8192, Precision::FP16};
    GemmShape s8{8192, 8192, 8192, Precision::FP8};
    double t16 = estimateGemm(dev, s16).computeTime;
    double t8 = estimateGemm(dev, s8).computeTime;
    EXPECT_NEAR(t8, t16 / 2.0, t16 * 0.01);
}

TEST(Gemm, RejectsBadShape)
{
    Device dev = presets::a100_80gb();
    EXPECT_THROW(estimateGemm(dev, {0, 8, 8, Precision::FP16}),
                 ConfigError);
    EXPECT_THROW(estimateGemm(dev, {8, -1, 8, Precision::FP16}),
                 ConfigError);
}

TEST(Gemm, LaunchOverheadToggle)
{
    Device dev = presets::a100_80gb();
    GemmShape s{64, 64, 64, Precision::FP16};
    GemmOptions with;
    GemmOptions without;
    without.launchOverhead = false;
    double t_with = estimateGemm(dev, s, "g", with).time;
    double t_without = estimateGemm(dev, s, "g", without).time;
    EXPECT_NEAR(t_with - t_without, dev.kernelLaunchOverhead, 1e-12);
}

TEST(Gemv, ClusteredUtilizationGrowsWithSize)
{
    GemvUtilizationCurve curve;
    EXPECT_LT(curve.utilization(10 * KB), curve.utilization(10 * MB));
    EXPECT_LE(curve.utilization(1 * GB), curve.maxUtilization);
}

TEST(Gemv, ConstantVsClusteredAgreeForLargeMatrices)
{
    Device dev = presets::a100_80gb();
    KernelEstimate c = estimateGemv(dev, 8192, 8192, Precision::FP16,
                                    "gemv", GemvUtilMode::Constant);
    KernelEstimate k = estimateGemv(dev, 8192, 8192, Precision::FP16,
                                    "gemv", GemvUtilMode::Clustered);
    double err = std::abs(c.time - k.time) / k.time;
    EXPECT_LT(err, 0.15);
}

TEST(Gemv, SmallKernelsDominatedByOverhead)
{
    Device dev = presets::a100_80gb();
    KernelEstimate est = estimateGemv(dev, 64, 64, Precision::FP16);
    EXPECT_GT(est.overhead / est.time, 0.5);
}

TEST(Gemv, AlwaysMemoryBoundOnGpu)
{
    Device dev = presets::h100_sxm();
    KernelEstimate est = estimateGemv(dev, 4096, 16384,
                                      Precision::FP16);
    EXPECT_TRUE(est.dramBound());
}

TEST(Stream, SoftmaxIsMemoryBound)
{
    Device dev = presets::a100_80gb();
    KernelEstimate est = estimateSoftmax(dev, 1 << 20, 2048,
                                         Precision::FP16);
    EXPECT_TRUE(est.dramBound());
    double bytes = 2.0 * double(1 << 20) * 2048.0 * 2.0;
    EXPECT_DOUBLE_EQ(est.bytesPerLevel[0], bytes);
}

TEST(Stream, FusionRemovesLaunch)
{
    Device dev = presets::a100_80gb();
    KernelEstimate fused = estimateElementwise(dev, "gelu", 1e6, 4.0,
                                               Precision::FP16, false);
    KernelEstimate alone = estimateElementwise(dev, "gelu", 1e6, 4.0,
                                               Precision::FP16, true);
    EXPECT_DOUBLE_EQ(fused.overhead, 0.0);
    EXPECT_NEAR(alone.time - fused.time, dev.kernelLaunchOverhead,
                1e-12);
}

TEST(Stream, RejectsNegativeWork)
{
    Device dev = presets::a100_80gb();
    EXPECT_THROW(estimateStream(dev, "x", -1.0, 0.0, Precision::FP16),
                 ConfigError);
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

TEST(Stream, RejectionMessagesAreExact)
{
    Device dev = presets::a100_80gb();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    auto streamError = [&](double bytes, double flops) {
        return configErrorText([&] {
            estimateStream(dev, "residual-add", bytes, flops,
                           Precision::FP16);
        });
    };
    EXPECT_EQ(streamError(-1.0, 0.0),
              "config error: residual-add: bytes must be non-negative");
    EXPECT_EQ(streamError(nan, 0.0),
              "config error: residual-add: bytes must be non-negative");
    EXPECT_EQ(streamError(0.0, -1.0),
              "config error: residual-add: flops must be non-negative");
    EXPECT_EQ(streamError(0.0, nan),
              "config error: residual-add: flops must be non-negative");
    // Bytes are checked before flops.
    EXPECT_EQ(streamError(nan, nan),
              "config error: residual-add: bytes must be non-negative");
    EXPECT_EQ(streamError(0.0, 0.0), "(no ConfigError)");
}

/** Independent reference for searchTile: the documented enumeration. */
TileChoice
referenceTile(const GemmShape &s, double capacity, double fill)
{
    auto candidates = [](long long dim) {
        std::vector<long long> out;
        for (long long t = 16; t < dim; t *= 2)
            out.push_back(t);
        out.push_back(dim);
        return out;
    };
    const double elem = precisionBytes(s.precision);
    auto traffic = [&](long long tm, long long tn, long long tk) {
        double a = double(s.m) * double(s.k) *
                   std::ceil(double(s.n) / double(tn));
        double b = double(s.k) * double(s.n) *
                   std::ceil(double(s.m) / double(tm));
        double c = 2.0 * double(s.m) * double(s.n) *
                   std::ceil(double(s.k) / double(tk));
        return elem * (a + b + c);
    };
    const double budget = capacity * fill / elem;
    TileChoice best{1, 1, 1, std::numeric_limits<double>::infinity()};
    for (long long tm : candidates(s.m)) {
        for (long long tn : candidates(s.n)) {
            double remaining = budget - double(tm) * double(tn);
            if (remaining <= 0.0)
                continue;
            long long tk = static_cast<long long>(remaining / (tm + tn));
            if (tk < 1)
                continue;
            tk = std::min(tk, s.k);
            double t = traffic(tm, tn, tk);
            if (t < best.traffic)  // strict: the first minimum wins
                best = {tm, tn, tk, t};
        }
    }
    if (best.traffic == std::numeric_limits<double>::infinity())
        best = {1, 1, 1, traffic(1, 1, 1)};
    return best;
}

TEST(Roofline, TileSearchMatchesBruteForce)
{
    struct CacheOff
    {
        bool was = tileCacheEnabled();
        CacheOff() { tileCacheSetEnabled(false); }
        ~CacheOff() { tileCacheSetEnabled(was); }
    } off;
    const long long dims[] = {1, 2, 15, 16, 17, 31, 32, 33, 100, 4096,
                              4097};
    const long long ks[] = {1, 33, 128, 4096, 12288};
    // 2 B holds no fp16 tile at all (the streaming fallback); the
    // rest span register-file to L2 sizes.
    const double capacities[] = {2.0, 64.0, 48 * KiB, 1 * MiB,
                                 40 * MiB};
    int checked = 0;
    int fallbacks = 0;
    for (Precision p : {Precision::FP16, Precision::FP32}) {
        for (long long m : dims) {
            for (long long n : dims) {
                for (long long k : ks) {
                    for (double cap : capacities) {
                        GemmShape s{m, n, k, p};
                        TileChoice want = referenceTile(s, cap, 0.5);
                        TileChoice got = searchTile(s, cap, 0.5);
                        ASSERT_EQ(want.tm, got.tm)
                            << m << "x" << n << "x" << k << " @" << cap;
                        ASSERT_EQ(want.tn, got.tn)
                            << m << "x" << n << "x" << k << " @" << cap;
                        ASSERT_EQ(want.tk, got.tk)
                            << m << "x" << n << "x" << k << " @" << cap;
                        ASSERT_EQ(want.traffic, got.traffic)
                            << m << "x" << n << "x" << k << " @" << cap;
                        ++checked;
                        fallbacks += got.tk == 1 && got.tm == 1 &&
                                     got.tn == 1 && cap == 2.0;
                    }
                }
            }
        }
    }
    EXPECT_EQ(checked, 2 * 11 * 11 * 5 * 5);
    EXPECT_EQ(fallbacks, 2 * 11 * 11 * 5);

    // Capacities at which tiles stop fitting part way through the
    // walk. A (tm, tn) tile fits when the budget (capacity * fill /
    // elem, so capacity / 4 elements for fp16 at fill 0.5) holds the
    // tm x tn output tile plus one k step of A and B (tm + tn).
    auto fits = [](long long tm, long long tn, double cap) {
        double remaining = cap / 4.0 - double(tm) * double(tn);
        return remaining >= double(tm + tn);
    };
    // 6000 B: the tm = 16 row fits tn = 16, 32 and 64, not 128; the
    // tm = 64 row fits only tn = 16; no tm = 128 tile fits.
    EXPECT_TRUE(fits(16, 64, 6000.0));
    EXPECT_FALSE(fits(16, 128, 6000.0));
    EXPECT_TRUE(fits(64, 16, 6000.0));
    EXPECT_FALSE(fits(64, 32, 6000.0));
    EXPECT_FALSE(fits(128, 16, 6000.0));
    // 1600 B: only the first row fits (both columns of n = 17, only
    // the first column of n = 4097).
    EXPECT_TRUE(fits(16, 17, 1600.0));
    EXPECT_TRUE(fits(16, 16, 1600.0));
    EXPECT_FALSE(fits(16, 32, 1600.0));
    EXPECT_FALSE(fits(32, 16, 1600.0));
    // Shared-memory capacities against 1M-wide outputs: the walk runs
    // out of fitting tiles long before the last of 17 candidates.
    EXPECT_TRUE(fits(2048, 16, 228 * KiB));
    EXPECT_FALSE(fits(4096, 16, 228 * KiB));
    EXPECT_FALSE(fits(1024, 16, 48 * KiB));
    const long long big = 1LL << 20;
    struct PartialFit
    {
        long long m;
        long long n;
        double cap;
    };
    const PartialFit partial[] = {
        {4097, 4097, 6000.0}, {100, 4097, 6000.0},
        {4097, 100, 6000.0},  {4097, 17, 1600.0},
        {17, 4097, 1600.0},   {4097, 4097, 1600.0},
        {big, big, 48 * KiB}, {big, big, 228 * KiB},
        {big, 4097, 228 * KiB}, {33, big, 228 * KiB},
    };
    int partial_checked = 0;
    for (Precision p : {Precision::FP16, Precision::FP32}) {
        for (const PartialFit &c : partial) {
            for (long long k : {1LL, 128LL, 8192LL}) {
                GemmShape s{c.m, c.n, k, p};
                TileChoice want = referenceTile(s, c.cap, 0.5);
                TileChoice got = searchTile(s, c.cap, 0.5);
                ASSERT_EQ(want.tm, got.tm)
                    << c.m << "x" << c.n << "x" << k << " @" << c.cap;
                ASSERT_EQ(want.tn, got.tn)
                    << c.m << "x" << c.n << "x" << k << " @" << c.cap;
                ASSERT_EQ(want.tk, got.tk)
                    << c.m << "x" << c.n << "x" << k << " @" << c.cap;
                ASSERT_EQ(want.traffic, got.traffic)
                    << c.m << "x" << c.n << "x" << k << " @" << c.cap;
                ++partial_checked;
            }
        }
    }
    EXPECT_EQ(partial_checked, 2 * 10 * 3);
}

/** evaluateOps as the left fold of combineEstimates, from empty. */
KernelEstimate
combinedFold(const Device &dev, const std::vector<Op> &ops,
             const std::string &label)
{
    KernelEstimate total;
    total.kernel = label;
    for (const Op &op : ops)
        total = combineEstimates(label, total, evaluateOp(dev, op));
    return total;
}

void
expectIdentical(const KernelEstimate &want, const KernelEstimate &got)
{
    EXPECT_EQ(want.kernel, got.kernel);
    EXPECT_EQ(want.flops, got.flops);
    ASSERT_EQ(want.bytesPerLevel.size(), got.bytesPerLevel.size());
    ASSERT_EQ(want.memTimePerLevel.size(), got.memTimePerLevel.size());
    for (size_t i = 0; i < want.bytesPerLevel.size(); ++i) {
        EXPECT_EQ(want.bytesPerLevel[i], got.bytesPerLevel[i]) << i;
        EXPECT_EQ(want.memTimePerLevel[i], got.memTimePerLevel[i]) << i;
    }
    EXPECT_EQ(want.computeTime, got.computeTime);
    EXPECT_EQ(want.overhead, got.overhead);
    EXPECT_EQ(want.time, got.time);
    EXPECT_EQ(want.boundLevel, got.boundLevel);
}

TEST(Roofline, EvaluateOpsIsTheCombinedFold)
{
    LayerGraphParams train;
    train.batch = 1;
    train.seq = 2048;
    train.tensorParallel = 8;
    train.sequenceParallel = true;
    LayerGraphParams flash = train;
    flash.flashAttention = true;
    const TransformerConfig gpt = models::gpt175b();
    const TransformerConfig llama = models::llama2_70b();
    const struct
    {
        const char *label;
        std::vector<Op> ops;
    } lists[] = {
        {"gpt-175b forward", layerForwardOps(gpt, train)},
        {"gpt-175b backward",
         layerBackwardOps(layerForwardOps(gpt, train))},
        {"gpt-175b flash forward", layerForwardOps(gpt, flash)},
        {"gpt-175b flash backward",
         layerBackwardOps(layerForwardOps(gpt, flash))},
        {"llama2-70b decode",
         decodeLayerOps(llama, 16, 1500, 8, Precision::FP16)},
        {"llama2-70b decode fp8 kv",
         decodeLayerOps(llama, 64, 4097, 8, Precision::FP16,
                        Precision::FP8)},
    };
    for (const Device &dev : {presets::a100_80gb(), presets::b200()}) {
        for (const auto &list : lists) {
            SCOPED_TRACE(dev.name + " " + list.label);
            ASSERT_GT(list.ops.size(), 1u);
            expectIdentical(combinedFold(dev, list.ops, list.label),
                            evaluateOps(dev, list.ops, list.label));
        }
    }
}

TEST(Roofline, TooDeepHierarchyIsAConfigError)
{
    // Estimates keep per-level values inline; a device that skipped
    // Device::validate with more levels than that must not overrun.
    Device dev = presets::a100_80gb();
    while (dev.mem.size() <= kMaxMemoryLevels) {
        MemoryLevel inner = dev.mem.back();
        inner.capacity /= 4;
        dev.mem.push_back(inner);
    }
    EXPECT_THROW(estimateGemm(dev, {512, 512, 512, Precision::FP16}),
                 ConfigError);
    EXPECT_THROW(estimateSoftmax(dev, 1024, 1024, Precision::FP16),
                 ConfigError);
}

TEST(Estimate, CombinePreservesTotals)
{
    Device dev = presets::a100_80gb();
    KernelEstimate a = estimateGemm(dev, {512, 512, 512,
                                          Precision::FP16});
    KernelEstimate b = estimateSoftmax(dev, 1024, 1024,
                                       Precision::FP16);
    KernelEstimate c = combineEstimates("sum", a, b);
    EXPECT_DOUBLE_EQ(c.flops, a.flops + b.flops);
    EXPECT_DOUBLE_EQ(c.time, a.time + b.time);
    EXPECT_DOUBLE_EQ(c.bytesPerLevel[0],
                     a.bytesPerLevel[0] + b.bytesPerLevel[0]);
}

// Property sweep: time decreases monotonically as DRAM bandwidth
// scales, for a memory-bound shape.
class DramScalingTest : public ::testing::TestWithParam<double>
{};

TEST_P(DramScalingTest, SkinnyGemmScalesWithBandwidth)
{
    Device dev = presets::a100_80gb();
    Device faster = presets::withDram(dev, "X",
                                      dev.dram().bandwidth * GetParam(),
                                      dev.dram().capacity);
    GemmShape s{1, 8192, 8192, Precision::FP16};
    double base = estimateGemm(dev, s).memTimePerLevel[0];
    double scaled = estimateGemm(faster, s).memTimePerLevel[0];
    EXPECT_NEAR(scaled, base / GetParam(), base * 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, DramScalingTest,
                         ::testing::Values(1.5, 2.0, 3.0, 4.0));

} // namespace
} // namespace optimus
