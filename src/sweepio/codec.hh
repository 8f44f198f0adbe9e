/**
 * @file
 * Record schemas for sweep specs, sweep results, the result cache and
 * the regression history, plus the file helpers around them.
 *
 * A sweep spec is one SweepPoint per line; a sweep result is one
 * SweepOutcome per line; the result cache (dispatch/result_cache) is
 * one CacheEntry per line; the regression history (dispatch/history)
 * is one HistoryEntry per line. Every number is an integer or a double
 * carried as its bit pattern (record.hh), so a round trip is
 * bit-identical by construction. That property is what lets a
 * sharded, multi-process sweep reproduce the single-process result
 * exactly (tools/confluence_sweep.cc), and tests/test_sweepio.cc pins
 * the bytes of every shape.
 *
 * The line-oriented layout (JSONL) keeps the format mergeable with
 * plain text tools: concatenating shard files is itself a valid result
 * file, and a shard can be streamed without loading the whole sweep.
 */

#ifndef CFL_SWEEPIO_CODEC_HH
#define CFL_SWEEPIO_CODEC_HH

#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "sim/sweep.hh"
#include "sweepio/record.hh"

namespace cfl::sweepio
{

/**
 * One line of the content-addressed result store used by
 * dispatch/result_cache: a digest key (sweepio/digest.hh) plus the
 * outcome it addresses.
 */
struct CacheEntry
{
    std::string key;       ///< 16 lowercase hex digits (pointDigest)
    SweepOutcome outcome;
};

/** One front end's geomean IPC speedup over Baseline. */
struct KindGeomean
{
    std::string kind; ///< front-end slug
    double geomean = 0.0;
};

/** One commit's worth of headline metrics (dispatch/history.hh). */
struct HistoryEntry
{
    std::string tag; ///< commit SHA or any run label
    /** Every non-Baseline kind, in the result's submission order. */
    std::vector<KindGeomean> geomeans;
};

/**
 * Front-end kinds and workloads travel as their slugs ([a-z0-9_], so
 * unescaped). An unknown slug is a parse error, not a fatal() from the
 * factory converters, so a tolerant loader (the result cache reading a
 * store shared with a newer binary that knows more kinds) can skip
 * that one record.
 */
template <typename E>
    requires std::same_as<E, FrontendKind> || std::same_as<E, WorkloadId>
struct ValueCodec<E>
{
    static constexpr bool kKind = std::same_as<E, FrontendKind>;

    static std::string slug(E value)
    {
        if constexpr (kKind)
            return frontendKindSlug(value);
        else
            return workloadSlug(value);
    }

    static const auto &all()
    {
        if constexpr (kKind)
            return allFrontendKinds();
        else
            return allWorkloads();
    }

    static void write(std::string &out, E value)
    {
        out += '"';
        out += slug(value);
        out += '"';
    }

    static void read(MiniJsonParser &p, E &value)
    {
        const std::string text = p.string();
        for (const E candidate : all())
            if (slug(candidate) == text) {
                value = candidate;
                return;
            }
        p.error(std::string(kKind ? "unknown front-end kind \""
                                  : "unknown workload \"") +
                text + "\"");
    }
};

template <>
struct Schema<RunScale>
{
    static constexpr auto fields = std::tuple{
        Field{"timing_warmup", &RunScale::timingWarmupInsts},
        Field{"timing_measure", &RunScale::timingMeasureInsts},
        Field{"timing_cores", &RunScale::timingCores},
        Field{"functional_warmup", &RunScale::functionalWarmupInsts},
        Field{"functional_measure", &RunScale::functionalMeasureInsts},
    };
};

template <>
struct Schema<SamplingSpec>
{
    static constexpr auto fields = std::tuple{
        Field{"interval", &SamplingSpec::intervalInsts},
        Field{"detailed_warmup", &SamplingSpec::detailedWarmupInsts},
        Field{"period", &SamplingSpec::periodInsts},
        Field{"rng_stream", &SamplingSpec::rngStream},
    };
};

template <>
struct Schema<DesignOverlay>
{
    static constexpr auto fields = std::tuple{
        Field{"btb_entries", &DesignOverlay::btbEntries},
        Field{"btb_ways", &DesignOverlay::btbWays},
        Field{"l2_entries", &DesignOverlay::l2Entries},
        Field{"air_bundles", &DesignOverlay::airBundles},
        Field{"air_branch_entries", &DesignOverlay::airBranchEntries},
        Field{"air_overflow_entries", &DesignOverlay::airOverflowEntries},
        Field{"shift_history", &DesignOverlay::shiftHistoryEntries},
        Field{"shift_stream_depth", &DesignOverlay::shiftStreamDepth},
    };
};

/** Sampling and overlay are trailing blocks: exact, identity-overlay
 *  points (and their digests, cache keys and golden files) keep the
 *  encoding they had before either existed. */
template <>
struct Schema<SweepPoint>
{
    static constexpr const char *context = "sweep JSON";
    static constexpr auto fields = std::tuple{
        Field{"kind", &SweepPoint::kind},
        Field{"workload", &SweepPoint::workload},
        Field{"scale", &SweepPoint::scale},
        Trailing{"sampling", &SweepPoint::sampling, &SamplingSpec::enabled},
        Trailing{"overlay", &SweepPoint::overlay, &DesignOverlay::enabled},
    };
};

template <>
struct Schema<CoreMetrics>
{
    static constexpr auto fields = std::tuple{
        Field{"retired", &CoreMetrics::retired},
        Field{"cycles", &CoreMetrics::cycles},
        Field{"btb_taken_lookups", &CoreMetrics::btbTakenLookups},
        Field{"btb_taken_misses", &CoreMetrics::btbTakenMisses},
        Field{"misfetches", &CoreMetrics::misfetches},
        Field{"cond_mispredicts", &CoreMetrics::condMispredicts},
        Field{"l1i_demand_fetches", &CoreMetrics::l1iDemandFetches},
        Field{"l1i_demand_misses", &CoreMetrics::l1iDemandMisses},
        Field{"l1i_in_flight_hits", &CoreMetrics::l1iInFlightHits},
        Field{"btb_l2_stall_cycles", &CoreMetrics::btbL2StallCycles},
        Field{"fetch_miss_stall_cycles", &CoreMetrics::fetchMissStallCycles},
    };
};

template <>
struct Schema<MetricEstimate>
{
    static constexpr auto fields = std::tuple{
        Field{"n", &MetricEstimate::count},
        Field{"mean", &MetricEstimate::mean},
        Field{"m2", &MetricEstimate::m2},
    };
};

template <>
struct Schema<SampleEstimates>
{
    static constexpr auto fields = std::tuple{
        Field{"cpi", &SampleEstimates::cpi},
        Field{"btb_mpki", &SampleEstimates::btbMpki},
        Field{"l1i_mpki", &SampleEstimates::l1iMpki},
    };
};

/** Exact outcomes carry no sampling block, like their points. */
template <>
struct Schema<CmpMetrics>
{
    static constexpr auto fields = std::tuple{
        Field{"cores", &CmpMetrics::cores},
        Trailing{"sampling", &CmpMetrics::sampling,
                 &SampleEstimates::valid},
    };
};

template <>
struct Schema<SweepOutcome>
{
    static constexpr const char *context = "sweep JSON";
    static constexpr auto fields = std::tuple{
        Field{"point", &SweepOutcome::point},
        Field{"seed", &SweepOutcome::seed},
        Field{"metrics", &SweepOutcome::metrics},
    };
};

template <>
struct Schema<CacheEntry>
{
    static constexpr const char *context = "sweep JSON";
    static constexpr auto fields = std::tuple{
        Field{"key", &CacheEntry::key},
        Field{"outcome", &CacheEntry::outcome},
    };
};

/** "geomean" is a %.17g rendering for human readers; the bits win. */
template <>
struct Schema<KindGeomean>
{
    static constexpr auto fields = std::tuple{
        Field{"kind", &KindGeomean::kind},
        Field{"geomean_bits", &KindGeomean::geomean},
        WriteOnly{"geomean",
                  [](const KindGeomean &g) {
                      char human[32];
                      std::snprintf(human, sizeof(human), "%.17g",
                                    g.geomean);
                      return std::string(human);
                  }},
    };
};

template <>
struct Schema<HistoryEntry>
{
    static constexpr const char *context = "history line";
    static constexpr auto fields = std::tuple{
        Field{"tag", &HistoryEntry::tag},
        Field{"entries", &HistoryEntry::geomeans},
    };
};

/** encode() and decode<SweepOutcome>() under their historical names. */
std::string encodeOutcome(const SweepOutcome &outcome);
SweepOutcome decodeOutcome(const std::string &line);

/** Whole result as JSONL text (one outcome per line). */
std::string encodeResult(const SweepResult &result);

/** Parse JSONL result text; blank lines are skipped. */
SweepResult decodeResult(const std::string &text);

/** Write a spec file, one point per line. */
void writePoints(const std::string &path,
                 const std::vector<SweepPoint> &points);

/** Read a spec file; fatal() if the file cannot be opened. */
std::vector<SweepPoint> readPoints(const std::string &path);

/** Write a result file, one outcome per line. */
void writeResult(const std::string &path, const SweepResult &result);

/** Read a result file; fatal() if the file cannot be opened. */
SweepResult readResult(const std::string &path);

} // namespace cfl::sweepio

#endif // CFL_SWEEPIO_CODEC_HH
