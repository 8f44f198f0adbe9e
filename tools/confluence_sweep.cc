/**
 * @file
 * Sharded sweep driver: run a timing sweep as N independent OS
 * processes and merge their results into a file that is bit-identical
 * to the single-process run.
 *
 * The determinism chain that makes this safe: per-point RNG seeds are
 * pure functions of the point coordinates (sweepPointSeed), shards are
 * contiguous slices by stable point index (sweepio/shard.hh), and the
 * codec serializes only integers and enum slugs (sweepio/codec.hh) —
 * so shard processes compute exactly the points the whole-sweep process
 * would, and merging shard files in order reproduces its output byte
 * for byte.
 *
 * Modes (one per invocation):
 *
 *   confluence_sweep --emit-points [--kinds a,b|all] [--workloads x|all]
 *                    [--scale quick|default|full] --out spec.jsonl
 *       Generate a sweep spec from kind/workload/scale lists.
 *
 *   confluence_sweep --points spec.jsonl [--shard i/N] --out out.jsonl
 *       Evaluate the spec's points (or just shard i of N) on the
 *       in-process parallel engine and write the result.
 *
 *   confluence_sweep --merge a.jsonl b.jsonl ... --out merged.jsonl
 *       Concatenate shard results in the given order, refusing
 *       duplicate (kind, workload) points (a shard merged twice).
 *
 *   confluence_sweep --summary result.jsonl
 *       Print per-point IPC/MPKI and per-design geomean speedups over
 *       Baseline at full precision, for diffing sharded vs unsharded
 *       runs in CI.
 *
 * Exit codes (dispatchers key retry decisions on these):
 *   0  success
 *   1  fatal error — bad configuration or I/O (infrastructure failure;
 *      a dispatcher may retry elsewhere)
 *   2  usage
 *   3  duplicate-point rejection — a corrupt spec (--points: two specs
 *      concatenated) or shard set (--merge: a shard merged twice);
 *      deterministic, never worth a retry
 *   4  injected fault: --points died at the "sweep.result.publish"
 *      fault site (after evaluating, before writing its result),
 *      simulating a worker killed mid-run. Configure via
 *      CONFLUENCE_FAULT_PLAN (fault/fault.hh), e.g.
 *      "pin=sweep.result.publish@0:die".
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/strings.hh"
#include "fault/fault.hh"
#include "sim/sweep.hh"
#include "sweepio/codec.hh"
#include "sweepio/shard.hh"

using namespace cfl;

namespace
{

constexpr int kExitUsage = 2;
constexpr int kExitDuplicatePoint = 3;
// Exit 4 = injected fault: fault::checkpoint("sweep.result.publish")
// dies with the plan's die-exit, which defaults to 4 precisely so this
// tool's documented code survives the framework migration.

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage:\n"
        "  %s --emit-points [--kinds a,b,..|all] [--workloads x,y,..|all]\n"
        "     [--scale quick|default|full] --out spec.jsonl\n"
        "  %s --points spec.jsonl [--shard i/N] --out result.jsonl\n"
        "  %s --merge shard0.jsonl shard1.jsonl .. --out merged.jsonl\n"
        "  %s --summary result.jsonl\n"
        "exit codes: 0 ok, 1 fatal, 2 usage, 3 duplicate point "
        "(--points/--merge),\n"
        "  4 injected fault (CONFLUENCE_FAULT_PLAN)\n",
        argv0, argv0, argv0, argv0);
    std::exit(kExitUsage);
}

std::vector<FrontendKind>
parseKinds(const std::string &list)
{
    if (list == "all")
        return allFrontendKinds();
    std::vector<FrontendKind> kinds;
    for (const std::string &slug : splitList(list))
        kinds.push_back(frontendKindFromSlug(slug));
    return kinds;
}

std::vector<WorkloadId>
parseWorkloads(const std::string &list)
{
    if (list == "all")
        return allWorkloads();
    std::vector<WorkloadId> workloads;
    for (const std::string &slug : splitList(list))
        workloads.push_back(workloadFromSlug(slug));
    return workloads;
}

int
emitPoints(const std::string &kinds_list, const std::string &workloads_list,
           const std::string &scale_name, const std::string &out_path)
{
    const RunScale scale = scaleByName(scale_name);
    std::vector<SweepPoint> points;
    for (const FrontendKind kind : parseKinds(kinds_list))
        for (const WorkloadId wl : parseWorkloads(workloads_list))
            points.push_back({kind, wl, scale});
    sweepio::writePoints(out_path, points);
    std::fprintf(stderr, "wrote %zu points to %s\n", points.size(),
                 out_path.c_str());
    return 0;
}

int
runPoints(const std::string &spec_path, const std::string &shard_spec,
          const std::string &out_path)
{
    std::vector<SweepPoint> points = sweepio::readPoints(spec_path);

    // Reject duplicate points at the door (e.g. two specs accidentally
    // concatenated) — a result holding duplicates would only blow up
    // later, in --summary or any SweepResult::find caller. Same
    // distinct exit code as the --merge rejection: the input is
    // deterministically corrupt, so a dispatcher must not retry it.
    // Keyed on the full point encoding: two points may legitimately
    // share (kind, workload) and differ only in their design overlay.
    std::set<std::string> unique;
    for (const SweepPoint &p : points) {
        if (!unique.insert(sweepio::encode(p)).second) {
            std::fprintf(stderr,
                         "error: duplicate point %s in %s — two "
                         "specs concatenated?\n",
                         sweepio::encode(p).c_str(),
                         spec_path.c_str());
            return kExitDuplicatePoint;
        }
    }

    if (!shard_spec.empty())
        points = sweepio::shardPoints(points,
                                      sweepio::parseShardSpec(shard_spec));
    if (points.empty())
        cfl_warn("shard has no points; writing an empty result");

    // One SystemConfig serves the whole run, so all points must agree
    // on the simulated core count.
    for (const SweepPoint &p : points)
        if (p.scale.timingCores != points.front().scale.timingCores)
            cfl_fatal("points disagree on timing_cores (%u vs %u); "
                      "split them into separate specs",
                      p.scale.timingCores,
                      points.front().scale.timingCores);

    SweepEngine engine;
    SweepResult result;
    if (!points.empty()) {
        const SystemConfig config =
            makeSystemConfig(points.front().scale.timingCores);
        result = runTimingSweep(points, config, engine);
    }

    // Fault-injection site for dispatcher tests: a plan pinning a
    // death here dies *after* the sweep but *before* the result
    // exists, like a worker killed mid-run; a pin with no exit code
    // dies with the documented exit code 4 (fault/fault.hh).
    fault::checkpoint("sweep.result.publish");

    sweepio::writeResult(out_path, result);
    std::fprintf(stderr, "evaluated %zu points (%u workers) into %s\n",
                 result.points.size(), engine.jobs(), out_path.c_str());
    return 0;
}

int
mergeResults(const std::vector<std::string> &inputs,
             const std::string &out_path)
{
    // Read every shard first so the merged vector can be sized once.
    std::vector<SweepResult> shards;
    shards.reserve(inputs.size());
    std::size_t total_points = 0;
    for (const std::string &path : inputs) {
        shards.push_back(sweepio::readResult(path));
        total_points += shards.back().points.size();
    }

    SweepResult merged;
    merged.points.reserve(total_points);
    // Keyed on the full point encoding — overlay variants of one
    // (kind, workload) are distinct points, not duplicates.
    std::set<std::string> seen;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        const std::string &path = inputs[i];
        SweepResult &shard = shards[i];
        for (const SweepOutcome &o : shard.points) {
            if (!seen.insert(sweepio::encode(o.point)).second) {
                // Distinct, documented exit code: a duplicate point
                // means the shard *set* is corrupt (a shard merged
                // twice), which no amount of retrying on another
                // worker will fix — dispatchers must be able to tell
                // this apart from an infrastructure failure (exit 1).
                std::fprintf(stderr,
                             "error: duplicate point %s in %s — "
                             "was a shard merged twice?\n",
                             sweepio::encode(o.point).c_str(),
                             path.c_str());
                return kExitDuplicatePoint;
            }
        }
        merged.merge(std::move(shard));
    }
    sweepio::writeResult(out_path, merged);
    std::fprintf(stderr, "merged %zu files (%zu points) into %s\n",
                 inputs.size(), merged.points.size(), out_path.c_str());
    return 0;
}

int
summarize(const std::string &path)
{
    const SweepResult result = sweepio::readResult(path);

    for (const SweepOutcome &o : result.points)
        std::printf("point %s %s ipc %.17g btb_mpki %.17g\n",
                    frontendKindSlug(o.point.kind).c_str(),
                    workloadSlug(o.point.workload).c_str(),
                    o.metrics.meanIpc(), o.metrics.meanBtbMpki());

    // Geomean speedups need the Baseline normalization points, and
    // SweepResult::find resolves points by (kind, workload) alone — so
    // skip the geomean section when overlay variants make that pair
    // ambiguous (search-produced results; their scoring lives in
    // search.jsonl, not here).
    std::vector<FrontendKind> kinds;
    bool have_baseline = false;
    std::set<std::pair<std::string, std::string>> kindWorkload;
    bool ambiguous = false;
    for (const SweepOutcome &o : result.points) {
        if (o.point.kind == FrontendKind::Baseline)
            have_baseline = true;
        if (!kindWorkload
                 .insert({frontendKindSlug(o.point.kind),
                          workloadSlug(o.point.workload)})
                 .second)
            ambiguous = true;
        if (std::find(kinds.begin(), kinds.end(), o.point.kind) ==
            kinds.end())
            kinds.push_back(o.point.kind);
    }
    if (ambiguous) {
        std::fprintf(stderr,
                     "note: result holds overlay variants sharing "
                     "(kind, workload); skipping geomean section\n");
        return 0;
    }
    if (!have_baseline)
        return 0;
    for (const FrontendKind kind : kinds) {
        if (kind == FrontendKind::Baseline)
            continue;
        std::printf("geomean_speedup %s %.17g\n",
                    frontendKindSlug(kind).c_str(),
                    result.geomeanSpeedup(kind, FrontendKind::Baseline));
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string kinds = "all", workloads = "all", scale = "default";
    std::string points_path, shard_spec, out_path, summary_path;
    std::vector<std::string> merge_inputs;
    bool emit = false, merge = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                cfl_fatal("%s needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--emit-points") {
            emit = true;
        } else if (arg == "--kinds") {
            kinds = value();
        } else if (arg == "--workloads") {
            workloads = value();
        } else if (arg == "--scale") {
            scale = value();
        } else if (arg == "--points") {
            points_path = value();
        } else if (arg == "--shard") {
            shard_spec = value();
        } else if (arg == "--out") {
            out_path = value();
        } else if (arg == "--summary") {
            summary_path = value();
        } else if (arg == "--merge") {
            merge = true;
            while (i + 1 < argc && argv[i + 1][0] != '-')
                merge_inputs.push_back(argv[++i]);
        } else {
            usage(argv[0]);
        }
    }

    const int modes = static_cast<int>(emit) + static_cast<int>(merge) +
                      static_cast<int>(!points_path.empty()) +
                      static_cast<int>(!summary_path.empty());
    if (modes != 1)
        usage(argv[0]);

    if (!summary_path.empty())
        return summarize(summary_path);
    if (out_path.empty())
        usage(argv[0]);
    if (emit)
        return emitPoints(kinds, workloads, scale, out_path);
    if (merge) {
        if (merge_inputs.empty())
            usage(argv[0]);
        return mergeResults(merge_inputs, out_path);
    }
    return runPoints(points_path, shard_spec, out_path);
}
