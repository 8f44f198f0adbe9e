/**
 * @file
 * Adaptive design-space search CLI over the result cache.
 *
 *   confluence_search --strategy exhaustive|halving|descent|fuzz
 *                     --space "kinds=a,b;axis=v1,v2;..."
 *                     [--workloads x,y|all] [--scale quick|default|full]
 *                     [--seed N] [--budget N] [--journal search.jsonl]
 *                     [--resume] [--cache store.jsonl] [--no-cache]
 *                     [--code-version TAG] [--pareto-out PREFIX]
 *                     [--eta N] [--finalists N] [--start SLUG]
 *                     [--exact-screening]
 *
 * The journal (default search.jsonl) is the durability artifact: every
 * (round, candidate, decision) appends before the next evaluation
 * starts. Resume re-runs the strategy and byte-verifies regenerated
 * records against the loaded prefix — points evaluated before a kill
 * are served by the result cache, so `--resume` continues without
 * re-simulating anything already journaled. Running without --resume
 * onto a non-empty journal is refused (exit 1); a journal that cannot
 * have been produced by these arguments and this binary exits 3.
 *
 * --pareto-out PREFIX writes PREFIX.csv and PREFIX.json holding every
 * finally-scored candidate with its storage cost and front membership —
 * the figure-registry "pareto" figure renders the same data from the
 * journal itself.
 *
 * Exit codes:
 *   0  search completed
 *   1  fatal error (bad configuration or I/O)
 *   2  usage
 *   3  journal conflict — the journal disagrees with this search's
 *      deterministic replay (wrong arguments, different binary, or
 *      corruption); retrying cannot help
 *   4  injected fault: a CONFLUENCE_FAULT_PLAN pin on
 *      "search.journal.append" died here (CI's kill/resume gate)
 *   5  fuzzer property violation — the journal's last "reject"
 *      decision and the printed replay recipe identify the trial
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/strings.hh"
#include "search/driver.hh"
#include "sim/presets.hh"

using namespace cfl;

namespace
{

constexpr int kExitUsage = 2;
constexpr int kExitViolation = 5;

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --strategy exhaustive|halving|descent|fuzz\n"
        "  --space \"kinds=a,b;axis=v1,v2;...\" [--workloads x,y|all]\n"
        "  [--scale quick|default|full] [--seed N] [--budget N]\n"
        "  [--journal search.jsonl] [--resume] [--cache store.jsonl]\n"
        "  [--no-cache] [--code-version TAG] [--pareto-out PREFIX]\n"
        "  [--eta N] [--finalists N] [--start SLUG] [--exact-screening]\n"
        "exit codes: 0 ok, 1 fatal, 2 usage, 3 journal conflict,\n"
        "  4 injected fault, 5 fuzzer property violation\n",
        argv0);
    std::exit(kExitUsage);
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        cfl_fatal("cannot open %s for writing", path.c_str());
    if (std::fwrite(text.data(), 1, text.size(), f) != text.size() ||
        std::fclose(f) != 0)
        cfl_fatal("short write to %s", path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    search::SearchOptions opts;
    std::string workloadsList = "all";
    std::string journalPath = "search.jsonl";
    std::string cachePath = dispatch::ResultCache::defaultStorePath();
    std::string paretoOut;
    bool resume = false, noCache = false;
    opts.codeVersion = dispatch::ResultCache::defaultCodeVersion();

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                cfl_fatal("%s needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--strategy") {
            opts.strategy = value();
        } else if (arg == "--space") {
            opts.space = search::DesignSpace::parse(value());
        } else if (arg == "--workloads") {
            workloadsList = value();
        } else if (arg == "--scale") {
            opts.scaleName = value();
        } else if (arg == "--seed") {
            opts.seed = parseUnsignedFlag("--seed", value());
        } else if (arg == "--budget") {
            opts.budget = parseUnsignedFlag("--budget", value());
        } else if (arg == "--journal") {
            journalPath = value();
        } else if (arg == "--resume") {
            resume = true;
        } else if (arg == "--cache") {
            cachePath = value();
        } else if (arg == "--no-cache") {
            noCache = true;
        } else if (arg == "--code-version") {
            opts.codeVersion = value();
        } else if (arg == "--pareto-out") {
            paretoOut = value();
        } else if (arg == "--eta") {
            opts.eta = parseUnsignedFlag("--eta", value());
        } else if (arg == "--finalists") {
            opts.finalists = parseUnsignedFlag("--finalists", value());
        } else if (arg == "--start") {
            opts.startSlug = value();
        } else if (arg == "--exact-screening") {
            opts.sampledScreening = false;
        } else {
            usage(argv[0]);
        }
    }
    if (opts.strategy.empty() || opts.space.kinds.empty())
        usage(argv[0]);

    opts.scale = scaleByName(opts.scaleName);
    if (workloadsList == "all") {
        opts.workloads = allWorkloads();
    } else {
        for (const std::string &slug : splitList(workloadsList))
            opts.workloads.push_back(workloadFromSlug(slug));
    }

    search::SearchJournal journal(journalPath, resume);

    dispatch::ResultCache cache(cachePath, opts.codeVersion);
    SweepEngine engine;
    const SystemConfig config =
        makeSystemConfig(opts.scale.timingCores);
    search::CachedEvaluator eval(config, engine,
                                 noCache ? nullptr : &cache,
                                 opts.codeVersion);

    const search::SearchReport report =
        search::runSearch(opts, eval, journal);

    std::fprintf(stderr,
                 "search: strategy=%s rounds=%llu candidates=%zu "
                 "requested_points=%llu evaluated_points=%llu "
                 "cached_points=%llu journal_replayed=%zu "
                 "journal_appended=%zu\n",
                 opts.strategy.c_str(),
                 static_cast<unsigned long long>(report.rounds),
                 report.scored.size(),
                 static_cast<unsigned long long>(eval.requestedPoints()),
                 static_cast<unsigned long long>(eval.evaluatedPoints()),
                 static_cast<unsigned long long>(eval.cachedPoints()),
                 journal.replayed(), journal.appended());

    if (!report.violation.empty()) {
        std::fprintf(stderr,
                     "fuzz violation at trial %llu: %s\n"
                     "replay: %s --strategy fuzz --seed %llu --budget "
                     "%llu --space \"%s\" --scale %s --no-cache "
                     "--journal /dev/null\n",
                     static_cast<unsigned long long>(
                         report.violationTrial),
                     report.violation.c_str(), argv[0],
                     static_cast<unsigned long long>(opts.seed),
                     static_cast<unsigned long long>(
                         report.violationTrial + 1),
                     opts.space.encode().c_str(),
                     opts.scaleName.c_str());
        return kExitViolation;
    }

    // Only the best point, so strategies that agree on it print equal
    // lines whatever candidates they scored; the front follows.
    std::printf("best %s score %.17g cost_kb %.17g cost_mm2 %.17g\n",
                report.best.c_str(), report.bestScore,
                report.bestCost.kiloBytes, report.bestCost.mm2);
    for (const std::size_t i : report.front)
        std::printf("front %s score %.17g cost_kb %.17g\n",
                    report.scored[i].candidate.slug().c_str(),
                    report.scored[i].score,
                    report.scored[i].cost.kiloBytes);

    if (!paretoOut.empty()) {
        writeFile(paretoOut + ".csv",
                  search::paretoCsv(report.scored, report.front));
        writeFile(paretoOut + ".json",
                  search::paretoJson(report.scored, report.front));
        std::fprintf(stderr, "wrote %s.csv and %s.json\n",
                     paretoOut.c_str(), paretoOut.c_str());
    }
    return 0;
}
