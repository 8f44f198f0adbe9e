/**
 * @file
 * SMARTS-style statistical sampling: the sampling plan of a sweep point
 * and the per-metric estimators a sampled run produces.
 *
 * A sampled run alternates functional fast-forward (branch history,
 * BTB, and cache state advance; no cycle timing) with short detailed
 * intervals. Each measured interval yields one observation per metric;
 * the estimators report the sample mean, variance, and a 95% confidence
 * half-width (Student's t for small sample counts). Everything here is
 * deterministic: the interval schedule is a pure function of the spec
 * and the point's seed base, and the Welford accumulation order is the
 * interval order, so a sampled point is bit-reproducible like an exact
 * one.
 */

#ifndef CFL_SIM_SAMPLING_HH
#define CFL_SIM_SAMPLING_HH

#include <cstdint>

#include "common/types.hh"

namespace cfl
{

/**
 * Sampling plan of one sweep point. All-integer so the sweepio codec
 * round-trips it exactly. A default-constructed spec (periodInsts == 0)
 * means exact simulation — the full-fidelity golden path.
 */
struct SamplingSpec
{
    /** Detailed measured interval length (retired insts per core). */
    Counter intervalInsts = 0;
    /** Detailed (timed) warmup run immediately before each interval,
     *  refilling the pipeline and short-lived queue state the
     *  fast-forward path does not model. */
    Counter detailedWarmupInsts = 0;
    /** Distance between interval starts; 0 disables sampling. Must be
     *  >= intervalInsts + detailedWarmupInsts when enabled. */
    Counter periodInsts = 0;
    /** Decorrelates the schedule phase from the workload stream; part
     *  of the point identity (different streams, different results). */
    std::uint64_t rngStream = 0;

    bool enabled() const { return periodInsts != 0; }

    bool operator==(const SamplingSpec &o) const = default;
};

/**
 * Online estimator of one sampled metric: Welford mean/variance over
 * the per-interval observations plus a Student-t 95% confidence
 * half-width. Accumulation order is fixed (interval order), so equal
 * observation sequences give bit-equal estimator state.
 */
struct MetricEstimate
{
    std::uint64_t count = 0;
    double mean = 0.0;
    double m2 = 0.0;  ///< sum of squared deviations (Welford)

    void add(double x);

    /** Unbiased sample variance; 0 with fewer than two observations. */
    double variance() const;

    /** Standard error of the mean. */
    double standardError() const;

    /** Half-width of the 95% confidence interval around mean. With
     *  fewer than two observations there is no interval: returns 0. */
    double halfWidth95() const;

    /** True when the 95% CI (widened by @p abs_slack on both sides)
     *  contains @p reference. The slack absorbs metrics whose true
     *  value sits at a boundary (e.g. an exactly-zero MPKI). */
    bool covers(double reference, double abs_slack = 0.0) const;

    bool operator==(const MetricEstimate &o) const = default;
};

/**
 * Per-metric estimates of a sampled CMP run; empty in exact mode.
 *
 * IPC is estimated in CPI space: every interval retires the same
 * instruction count, so the mean of per-interval CPIs equals the CPI
 * of the union of measured windows (a linear, unbiased statistic),
 * whereas the mean of per-interval IPCs over-estimates by Jensen's
 * inequality. ipcMean() transforms the CPI estimate back for
 * reporting.
 */
struct SampleEstimates
{
    MetricEstimate cpi;
    MetricEstimate btbMpki;
    MetricEstimate l1iMpki;

    /** True when this run was sampled (observations exist). */
    bool valid() const { return cpi.count != 0; }

    /** Point estimate of IPC (1 / mean CPI; 0 without observations). */
    double ipcMean() const;

    bool operator==(const SampleEstimates &o) const = default;
};

/** Two-sided 95% Student-t critical value for @p df degrees of
 *  freedom (df >= 31 uses the normal limit 1.96). */
double tCritical95(std::uint64_t df);

} // namespace cfl

#endif // CFL_SIM_SAMPLING_HH
