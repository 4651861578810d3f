/**
 * @file
 * RunRecord diff & attribution engine, and the CI regression
 * sentinel's decision logic.
 *
 * diffRuns() matches two ledger entries metric by metric, kernel by
 * kernel (stable "<lane>/<name>" identity) and validation row by row,
 * computes relative deltas, decomposes the top-level time delta into
 * its compute / network / other components, and flags structural
 * drift that no tolerance excuses: bound-class flips, kernels present
 * on only one side, missing metrics, attribute changes, and config
 * fingerprint mismatches.
 *
 * Drift semantics (what `optimus_cli diff --check` gates on):
 *  - a metric, kernel time, or validation prediction whose relative
 *    delta exceeds DiffOptions::tolPct;
 *  - any structural drift listed above.
 * Counters are reported for context but never gate: totals such as
 * tile-cache hits or exec/threads legitimately vary with thread
 * count. Wall-clock and git SHA are metadata, never compared.
 */

#ifndef OPTIMUS_REPORT_DIFF_H
#define OPTIMUS_REPORT_DIFF_H

#include <string>
#include <vector>

#include "report/record.h"
#include "util/table.h"

namespace optimus {
namespace report {

/** Tolerances of a diff run. */
struct DiffOptions
{
    /** Relative drift allowed per metric, percent. */
    double tolPct = 0.5;
};

/** One changed (or one-sided) numeric value. */
struct MetricDelta
{
    std::string key;
    double a = 0.0;
    double b = 0.0;
    bool onlyA = false;      ///< present only in the first record
    bool onlyB = false;      ///< present only in the second record
    bool beyondTolerance = false;

    /** Relative delta vs @p a, percent (signed; huge when a == 0). */
    double deltaPct() const;
};

/** One changed (or one-sided) kernel aggregate. */
struct KernelDelta
{
    std::string key;
    KernelStat a;
    KernelStat b;
    bool onlyA = false;
    bool onlyB = false;
    bool boundFlip = false;  ///< bound class changed (always drift)
    bool beyondTolerance = false;

    /**
     * The row's drift verdict: beyond tolerance, a bound flip or a
     * one-sided kernel.
     */
    bool drifts() const;

    /** Relative time delta vs a.time, percent. */
    double timeDeltaPct() const;

    /**
     * Attribution of the time delta: which recorded component moved.
     * One of "flops", "bytes", "overhead", "count", "bound",
     * "throughput" (time moved while work stayed identical — an
     * efficiency/model change), or "" when nothing changed.
     */
    std::string component() const;
};

/** Full result of diffing two RunRecords. */
struct RunDiff
{
    /** False when the config fingerprints differ (counts as drift). */
    bool comparable = true;
    bool schemaMismatch = false;
    std::string fingerprintA;
    std::string fingerprintB;

    std::vector<MetricDelta> metrics;      ///< changed metrics only
    std::vector<KernelDelta> kernels;      ///< changed kernels only
    std::vector<MetricDelta> validation;   ///< changed predictions
    std::vector<MetricDelta> counters;     ///< informational only
    /** "key: 'a' -> 'b'" descriptions of changed attributes. */
    std::vector<std::string> attrChanges;

    /** True when nothing differs at all (counters included). */
    bool empty() const;

    /** True when any gated difference exceeds tolerance. */
    bool drifted() const;
};

/** Compare two ledger entries. */
RunDiff diffRuns(const RunRecord &a, const RunRecord &b,
                 const DiffOptions &opts = {});

/** Sentinel exit code: 0 clean, 1 drifted. */
int checkExitCode(const RunDiff &diff);

/** Human-readable report (decomposition included). */
std::string diffText(const RunDiff &diff, const RunRecord &a,
                     const RunRecord &b, const DiffOptions &opts);

/** Machine-readable report. */
JsonValue toJson(const RunDiff &diff);

} // namespace report
} // namespace optimus

#endif // OPTIMUS_REPORT_DIFF_H
