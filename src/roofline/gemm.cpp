#include "roofline/gemm.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

#include "util/error.h"

namespace optimus {

namespace {

/** Hardware macro-tile used for shape quantization. */
constexpr long long kQuantM = 16;
constexpr long long kQuantN = 16;
constexpr long long kQuantK = 32;

/** Effective register-level reuse distance per operand. */
constexpr long long kRegisterTile = 128;

/**
 * min(m, n) below which a GEMM is skinny and the GEMV
 * DRAM-utilization factor applies.
 */
constexpr long long kSkinnyThreshold = 32;

long long
roundUp(long long v, long long q)
{
    return (v + q - 1) / q * q;
}

double
ceilDiv(double a, double b)
{
    return std::ceil(a / b);
}

// Candidate tile edges for a dim: the powers of two from 16 below dim,
// then dim itself, walked in that order without building a list. The
// edges strictly grow, which lets the walk stop at the first tile that
// no longer fits.

/** First candidate tile edge for @p dim. */
long long
firstTile(long long dim)
{
    return std::min(16LL, dim);
}

/** The candidate after @p t for @p dim; 0 once dim itself was walked. */
long long
nextTile(long long t, long long dim)
{
    if (t == dim)
        return 0;
    return t * 2 < dim ? t * 2 : dim;
}

/** Candidates per dim: 16, 32, ..., 2^62, then dim (at most 60). */
constexpr size_t kMaxTileCandidates = 64;

/**
 * Traffic (bytes) to the outer level when A is re-read once per column
 * block (@p n_blocks = ceil(n/tn)), B once per row block (@p m_blocks =
 * ceil(m/tm)), and the output tile read and written once per reduction
 * chunk (@p k_chunks = ceil(k/tk), 1 when the whole reduction fits).
 * The one traffic formula of the GEMM model: the tile search, its
 * streaming fallback, the register tile and the single-level device
 * all go through it.
 */
double
tileTraffic(const GemmShape &s, double elem, double n_blocks,
            double m_blocks, double k_chunks)
{
    double a_reads = double(s.m) * double(s.k) * n_blocks;
    double b_reads = double(s.k) * double(s.n) * m_blocks;
    double c_rw = 2.0 * double(s.m) * double(s.n) * k_chunks;
    return elem * (a_reads + b_reads + c_rw);
}

/**
 * The capacity-constrained tile walk behind searchTile, without the
 * memo. For each (tm, tn) the output tile is reserved first and the
 * rest of the budget goes to the k extent of the A and B tiles. A
 * larger edge leaves less room, so a row ends at its first tile that
 * does not fit, and the walk ends at the first row whose first tile
 * does not fit; the first minimum in walk order wins.
 */
TileChoice
walkTiles(const GemmShape &shape, double capacity_bytes,
          double fill_factor)
{
    const double elem = precisionBytes(shape.precision);
    const double budget = capacity_bytes * fill_factor / elem;
    const double m = double(shape.m);
    const double n = double(shape.n);
    const double k = double(shape.k);

    // ceil(n/tn) per column candidate, computed once for every row.
    std::array<double, kMaxTileCandidates> n_blocks;
    size_t columns = 0;
    for (long long tn = firstTile(shape.n); tn != 0;
         tn = nextTile(tn, shape.n))
        n_blocks[columns++] = ceilDiv(n, double(tn));

    TileChoice best;
    best.traffic = std::numeric_limits<double>::infinity();

    for (long long tm = firstTile(shape.m); tm != 0;
         tm = nextTile(tm, shape.m)) {
        const double m_blocks = ceilDiv(m, double(tm));
        size_t col = 0;
        for (long long tn = firstTile(shape.n); tn != 0;
             tn = nextTile(tn, shape.n), ++col) {
            double remaining = budget - double(tm) * double(tn);
            if (remaining <= 0.0)
                break;
            long long tk = static_cast<long long>(remaining / (tm + tn));
            if (tk < 1)
                break;
            // ceil(k/k) is exactly 1: skip the division when the
            // whole reduction fits, as it mostly does.
            const double k_chunks =
                tk >= shape.k ? 1.0 : ceilDiv(k, double(tk));
            tk = std::min(tk, shape.k);
            double traffic = tileTraffic(shape, elem, n_blocks[col],
                                         m_blocks, k_chunks);
            if (traffic < best.traffic) {
                best = {tm, tn, tk, traffic};
            }
        }
        if (col == 0)
            break;  // not even this row's first tile fits
    }

    if (!std::isfinite(best.traffic)) {
        // Cache too small for even the minimal tile: every operand
        // byte streams through without reuse, and the 1-element
        // output chunk is revisited once per k step (same formula as
        // the search, at the degenerate 1x1x1 tile).
        best = {1, 1, 1, tileTraffic(shape, elem, n, m, k)};
    }
    return best;
}

// ---- Tile-search memo cache -----------------------------------------
//
// Sweeps (planner enumeration, DSE grids, figure drivers) re-run
// searchTile for identical keys thousands of times; the O(tiles^2)
// candidate scan is the engine's hottest loop. The cache is process-
// wide, shared-read (std::shared_mutex), and safe under the exec
// layer's concurrency. searchTile is a pure function of the key, so
// caching can never change results. Shapes an evaluation visits once
// (per-token decode attention, GemmOptions::memoizeTiles) skip it:
// for them a lookup is a miss, a node allocation and an exclusive
// lock that no later call pays back.

struct TileKey
{
    long long m = 0;
    long long n = 0;
    long long k = 0;
    int precision = 0;
    std::uint64_t capacityBits = 0; ///< exact double, bit pattern
    std::uint64_t fillBits = 0;
    bool operator==(const TileKey &) const = default;
};

struct TileKeyHash
{
    size_t operator()(const TileKey &key) const
    {
        // FNV-1a over the key's words: cheap and well-mixed for the
        // handful of distinct shapes a sweep produces.
        std::uint64_t h = 1469598103934665603ull;
        auto mix = [&h](std::uint64_t v) {
            h ^= v;
            h *= 1099511628211ull;
        };
        mix(static_cast<std::uint64_t>(key.m));
        mix(static_cast<std::uint64_t>(key.n));
        mix(static_cast<std::uint64_t>(key.k));
        mix(static_cast<std::uint64_t>(key.precision));
        mix(key.capacityBits);
        mix(key.fillBits);
        return static_cast<size_t>(h);
    }
};

std::shared_mutex tile_cache_mu;
std::unordered_map<TileKey, TileChoice, TileKeyHash> tile_cache;
std::atomic<unsigned long long> tile_cache_hits{0};
std::atomic<unsigned long long> tile_cache_misses{0};
std::atomic<bool> tile_cache_on{true};

/**
 * searchTile with the memo as an argument: @p memoize false walks the
 * tiles without touching the cache or its counters, for shapes an
 * evaluation visits only once.
 */
TileChoice
findTile(const GemmShape &shape, double capacity_bytes,
         double fill_factor, bool memoize)
{
    checkPositive(shape.m, "gemm m");
    checkPositive(shape.n, "gemm n");
    checkPositive(shape.k, "gemm k");
    checkPositive(capacity_bytes, "tile search capacity");

    if (!memoize || !tile_cache_on.load(std::memory_order_relaxed))
        return walkTiles(shape, capacity_bytes, fill_factor);

    TileKey key{shape.m, shape.n, shape.k,
                static_cast<int>(shape.precision),
                std::bit_cast<std::uint64_t>(capacity_bytes),
                std::bit_cast<std::uint64_t>(fill_factor)};
    {
        std::shared_lock lock(tile_cache_mu);
        auto it = tile_cache.find(key);
        if (it != tile_cache.end()) {
            tile_cache_hits.fetch_add(1, std::memory_order_relaxed);
            return it->second;
        }
    }

    TileChoice best = walkTiles(shape, capacity_bytes, fill_factor);
    tile_cache_misses.fetch_add(1, std::memory_order_relaxed);
    std::unique_lock lock(tile_cache_mu);
    tile_cache.emplace(key, best);
    return best;
}

} // namespace

double
shapeEfficiency(const GemmShape &shape)
{
    double ideal = double(shape.m) * double(shape.n) * double(shape.k);
    double padded = double(roundUp(shape.m, kQuantM)) *
                    double(roundUp(shape.n, kQuantN)) *
                    double(roundUp(shape.k, kQuantK));
    return ideal / padded;
}

TileCacheStats
tileCacheStats()
{
    TileCacheStats s;
    s.hits = tile_cache_hits.load(std::memory_order_relaxed);
    s.misses = tile_cache_misses.load(std::memory_order_relaxed);
    std::shared_lock lock(tile_cache_mu);
    s.entries = tile_cache.size();
    return s;
}

void
tileCacheClear()
{
    std::unique_lock lock(tile_cache_mu);
    tile_cache.clear();
    tile_cache_hits.store(0, std::memory_order_relaxed);
    tile_cache_misses.store(0, std::memory_order_relaxed);
}

void
tileCacheSetEnabled(bool on)
{
    tile_cache_on.store(on, std::memory_order_relaxed);
}

bool
tileCacheEnabled()
{
    return tile_cache_on.load(std::memory_order_relaxed);
}

TileChoice
searchTile(const GemmShape &shape, double capacity_bytes,
           double fill_factor)
{
    return findTile(shape, capacity_bytes, fill_factor, true);
}

KernelEstimate
estimateGemm(const Device &dev, const GemmShape &shape,
             const std::string &label, const GemmOptions &opts)
{
    checkPositive(shape.m, "gemm m");
    checkPositive(shape.n, "gemm n");
    checkPositive(shape.k, "gemm k");
    checkConfig(!dev.mem.empty(), "device has no memory hierarchy");

    const double elem = precisionBytes(shape.precision);

    KernelEstimate est;
    est.kernel = label;
    est.flops = 2.0 * double(shape.m) * double(shape.n) * double(shape.k);

    // Effective compute throughput. The matrix engine approaches its
    // efficiency ceiling only for large reduction dimensions. A
    // precision the matrix engine lacks runs dequantized at the
    // narrowest wider format it does support (e.g. fp8 operands on an
    // A100 compute at the fp16 tensor-core rate); only formats wider
    // than every supported one fall back to the vector units.
    double matrix_rate = 0.0;
    if (dev.supportsMatrix(shape.precision)) {
        matrix_rate = dev.matrixFlops(shape.precision);
    } else {
        double want = precisionBytes(shape.precision);
        double best_bytes = 1e9;
        for (const auto &[p, f] : dev.matrixThroughput) {
            double b = precisionBytes(p);
            if (b >= want && b < best_bytes) {
                best_bytes = b;
                matrix_rate = f;
            }
        }
    }
    double peak;
    if (matrix_rate > 0.0) {
        double k_eff = double(shape.k) /
                       (double(shape.k) + dev.gemmKHalf);
        peak = matrix_rate * dev.matrixMaxEfficiency * k_eff;
    } else {
        peak = dev.vectorFlops(shape.precision);
    }
    peak *= shapeEfficiency(shape);
    est.computeTime = est.flops / peak;

    const bool skinny = std::min(shape.m, shape.n) < kSkinnyThreshold;

    const size_t levels = dev.mem.size();
    est.bytesPerLevel.assign(levels, 0.0);
    est.memTimePerLevel.assign(levels, 0.0);

    for (size_t i = 0; i < levels; ++i) {
        double bytes;
        if (i + 1 < levels) {
            // Traffic at level i is set by how well the next (inner)
            // level can tile the problem.
            bytes = findTile(shape, dev.mem[i + 1].capacity, 0.5,
                             opts.memoizeTiles)
                        .traffic;
        } else if (levels == 1) {
            // Single-level device: assume perfect on-chip reuse, pay
            // only compulsory traffic.
            bytes = tileTraffic(shape, elem, 1.0, 1.0, 1.0);
        } else {
            // Innermost scratch: traffic set by the register tile,
            // with the whole reduction in registers.
            bytes = tileTraffic(
                shape, elem,
                ceilDiv(double(shape.n), double(kRegisterTile)),
                ceilDiv(double(shape.m), double(kRegisterTile)), 1.0);
        }
        double util = dev.mem[i].utilization;
        if (i == 0 && skinny)
            util = dev.gemvDramUtilization;
        est.bytesPerLevel[i] = bytes;
        est.memTimePerLevel[i] = bytes / (dev.mem[i].bandwidth * util);
    }

    est.overhead = opts.launchOverhead ? dev.kernelLaunchOverhead : 0.0;
    finalizeEstimate(est);

    // Bound-type classification follows the classic roofline (peak
    // matrix rate at the efficiency ceiling, no mainloop penalty), as
    // the paper does: a kernel whose arithmetic intensity sits below
    // the ridge is memory-bound even when an inefficient kernel
    // implementation makes its compute term slow.
    if (matrix_rate > 0.0) {
        double cls_compute =
            est.flops / (matrix_rate * dev.matrixMaxEfficiency *
                         shapeEfficiency(shape));
        est.boundLevel = bindingLevel(cls_compute, est.memTimePerLevel);
    }
    return est;
}

} // namespace optimus
