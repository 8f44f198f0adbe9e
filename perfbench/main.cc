/**
 * @file
 * perfbench: the repository's end-to-end benchmark.
 *
 *   perfbench --workload NAME --work-dir DIR [--seed N] [--seconds S]
 *             [--trace 0|1] [--code-version TAG]
 *   perfbench --list-metrics
 *
 * Sets the workload up (timed as setup_s), then runs it in a closed
 * loop from this process, one operation at a time with tracing off,
 * until --seconds have been measured (at least three operations), and
 * checks every output. With --trace 0 it reports the end-to-end
 * metrics; with --trace 1 it then runs one more operation with spans
 * around the calls into each layer, plus the component replays, and
 * reports the per-layer metrics. The last stdout line is one JSON
 * object {"correct", "attempted", "failed", "metrics"}; the exit code
 * is 1 when any output check failed, 2 on a usage error. The run's
 * record (manifest, metrics, operation walls) and, for a traced run,
 * its spans are written to DIR when the run ends.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "dispatch/backend.hh"
#include "trace/trace_cache.hh"
#include "tracer.hh"
#include "workloads.hh"

// ---------------------------------------------------------------------------
// Process start and heap-allocation count (this binary only)
// ---------------------------------------------------------------------------

namespace
{

const perfbench::Clock::time_point gProcessStart = perfbench::Clock::now();
std::atomic<std::uint64_t> gAllocs{0};

} // namespace

void *
operator new(std::size_t size)
{
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace perfbench
{

namespace
{

/** Operations every run measures at least, whatever --seconds says. */
constexpr std::size_t kMinOps = 3;
/** Processes whose set-up time setup_s takes the median of (this one
 *  plus kSetupRuns - 1 fresh ones). */
constexpr int kSetupRuns = 9;
/** Largest share of the traced operation's wall time that may go
 *  unattributed to a layer of the program. */
constexpr double kCoverageTolerance = 0.02;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload NAME --work-dir DIR "
                 "[--seed N] [--seconds S] [--trace 0|1] "
                 "[--code-version TAG]\n"
                 "       perfbench --list-metrics\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseUnsigned(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || text[0] == '-' || *end != '\0' || errno != 0)
        usage((flag + " needs a non-negative integer").c_str());
    return v;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    return "unknown";
}

std::string
compiler()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

double
peakRssMb(int who)
{
    rusage ru{};
    getrusage(who, &ru);
    return ru.ru_maxrss / 1024.0; // Linux reports KiB
}

/** Set-up seconds of one fresh `perfbench --setup-only` process. */
double
childSetupSeconds(const RunOptions &opts)
{
    char exe[4096];
    const ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
    if (n <= 0)
        return -1.0;
    exe[n] = '\0';
    const std::string cmd =
        cfl::dispatch::shellQuote(exe) + " --setup-only --workload " +
        cfl::dispatch::shellQuote(opts.workload) + " --seed " +
        std::to_string(opts.seed) + " --work-dir " +
        cfl::dispatch::shellQuote(opts.workDir);
    FILE *pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr)
        return -1.0;
    double seconds = -1.0;
    if (std::fscanf(pipe, "setup_s %lf", &seconds) != 1)
        seconds = -1.0;
    return pclose(pipe) == 0 ? seconds : -1.0;
}

std::string
manifest(const RunOptions &opts, const std::string &code_version, bool trace,
         const Workload &w)
{
    std::ostringstream os;
    os << "{\"code_version\":" << jsonString(code_version)
       << ",\"build_type\":" << jsonString(PERFBENCH_BUILD_TYPE)
       << ",\"lto\":" << jsonString(PERFBENCH_LTO)
       << ",\"compiler\":" << jsonString(compiler())
       << ",\"cpu_model\":" << jsonString(cpuModel())
       << ",\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"engine_workers\":" << kEngineWorkers
       << ",\"dispatch_workers\":" << kDispatchWorkers
       << ",\"shard_jobs\":1"
       << ",\"workload\":" << jsonString(opts.workload)
       << ",\"seed\":" << opts.seed << ",\"seconds\":" << number(opts.seconds)
       << ",\"trace\":" << (trace ? 1 : 0) << ",\"trace_cache_budget_mb\":"
       << number(cfl::traceCache().budgetBytes() / (1024.0 * 1024.0))
       << ",\"scale\":" << jsonString(w.scaleName()) << "}";
    return os.str();
}

struct Args
{
    RunOptions opts;
    std::string codeVersion = "unknown";
    bool trace = false;
    bool setupOnly = false;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list-metrics") {
            for (const auto *list : {&endToEndMetrics(), &perLayerMetrics()})
                for (const MetricDef &m : *list)
                    std::printf("%s %s %s\n", m.name.c_str(), m.unit.c_str(),
                                list == &endToEndMetrics() ? "end_to_end"
                                                           : "per_layer");
            std::exit(0);
        }
        if (arg == "--setup-only") {
            a.setupOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            usage((arg + " needs a value").c_str());
        const std::string value = argv[++i];
        if (arg == "--workload")
            a.opts.workload = value;
        else if (arg == "--seed")
            a.opts.seed = parseUnsigned(arg, value);
        else if (arg == "--seconds")
            a.opts.seconds = static_cast<double>(parseUnsigned(arg, value));
        else if (arg == "--trace")
            a.trace = parseUnsigned(arg, value) != 0;
        else if (arg == "--work-dir")
            a.opts.workDir = value;
        else if (arg == "--code-version")
            a.codeVersion = value;
        else
            usage(("unknown flag " + arg).c_str());
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), a.opts.workload) == names.end())
        usage(("unknown workload \"" + a.opts.workload + "\"").c_str());
    if (a.opts.workDir.empty())
        usage("--work-dir is required");
    return a;
}

/** What the untraced closed loop measured. */
struct Loop
{
    std::vector<double> walls;
    double allocsPerOp = 0.0;
    double peakRssMb = 0.0;
};

Loop
closedLoop(Workload &w, double seconds)
{
    Loop loop;
    const std::uint64_t allocs0 = gAllocs.load(std::memory_order_relaxed);
    const auto t0 = Clock::now();
    while (loop.walls.size() < kMinOps ||
           secondsSince(t0) + median(loop.walls) <= seconds)
        loop.walls.push_back(w.runOnce());
    loop.allocsPerOp =
        static_cast<double>(gAllocs.load(std::memory_order_relaxed) -
                            allocs0) /
        loop.walls.size();
    loop.peakRssMb =
        std::max(peakRssMb(RUSAGE_SELF), peakRssMb(RUSAGE_CHILDREN));
    return loop;
}

void
endToEndValues(Workload &w, const RunOptions &opts, double setup_seconds,
               const Loop &loop, Values &values)
{
    std::vector<double> setups = {setup_seconds};
    for (int i = 1; i < kSetupRuns; ++i) {
        const double s = childSetupSeconds(opts);
        if (s < 0)
            w.failures.push_back("a --setup-only process failed");
        setups.push_back(s);
    }
    const double wall = median(loop.walls);
    values["setup_s"] = median(setups);
    values["wall_s"] = wall;
    values["peak_rss_mb"] = loop.peakRssMb;
    values["success_frac"] =
        static_cast<double>(w.attempted - w.failed) / w.attempted;
    w.endToEnd(wall, values);
}

/** The traced run's per-layer values; returns its spans as JSON lines. */
std::string
perLayerValues(Workload &w, double synth_seconds, const Loop &loop,
               Values &values)
{
    for (const MetricDef &m : perLayerMetrics())
        values[m.name] = 0.0;
    Tracer tracer;
    const std::uint32_t root = w.traced(tracer, values);
    componentReplays(values);

    const std::vector<Span> spans = tracer.spans();
    const LayerShares shares = layerShares(spans, root);
    for (const std::string &p : shares.problems)
        w.failures.push_back("span tree: " + p);
    double attributed = 0.0;
    for (const auto &[layer, s] : shares.share)
        attributed += s;
    const std::string prefix = "self_s.";
    for (const MetricDef &m : perLayerMetrics())
        if (m.name.rfind(prefix, 0) == 0) {
            const auto it = shares.share.find(m.name.substr(prefix.size()));
            values[m.name] = it == shares.share.end() ? 0.0 : it->second;
        }
    const auto bench = shares.share.find("bench");
    const double benchSelf = bench == shares.share.end() ? 0.0 : bench->second;
    values["sim.self_coverage"] = 1.0 - benchSelf / shares.wall;
    if (std::abs(attributed - shares.wall) > kCoverageTolerance * shares.wall ||
        benchSelf > kCoverageTolerance * shares.wall)
        w.failures.push_back(
            "layer self times do not account for the traced wall time");

    values["sim.trace_overhead"] = shares.wall / median(loop.walls) - 1.0;
    values["workloads.synth_s"] = synth_seconds;
    values["sim.allocs_per_kinst"] =
        loop.allocsPerOp / (w.simulatedInstsPerOp() / 1000.0);
    return spansJsonl(spans);
}

/** Print the metric lines and the result line; write the records. */
int
report(Workload &w, const Args &a, const Loop &loop, const Values &values,
       const std::string &spans)
{
    const std::string man = manifest(a.opts, a.codeVersion, a.trace, w);
    std::printf("manifest %s\n", man.c_str());
    std::printf("operations %zu, median wall %.6f s\n", loop.walls.size(),
                median(loop.walls));
    const std::vector<MetricDef> &catalog =
        a.trace ? perLayerMetrics() : endToEndMetrics();
    std::ostringstream metrics;
    std::set<std::string> known;
    for (const MetricDef &m : catalog) {
        known.insert(m.name);
        const auto it = values.find(m.name);
        if (it == values.end() || !std::isfinite(it->second)) {
            w.failures.push_back("metric " + m.name + " was not measured");
            continue;
        }
        std::printf("  %-36s %22.9g %-10s %s\n", m.name.c_str(), it->second,
                    m.unit.c_str(), m.domain.c_str());
        metrics << (metrics.tellp() == 0 ? "" : ", ") << jsonString(m.name)
                << ": {\"value\": " << number(it->second)
                << ", \"unit\": " << jsonString(m.unit) << "}";
    }
    for (const auto &[name, v] : values)
        if (!known.count(name))
            w.failures.push_back("metric " + name + " is not in the catalog");
    for (const std::string &f : w.failures)
        std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", f.c_str());

    const std::string stem = a.opts.workDir + "/" + a.opts.workload +
                             "-seed" + std::to_string(a.opts.seed) +
                             "-trace" + (a.trace ? "1" : "0");
    {
        std::ofstream rec(stem + ".record.json");
        rec << "{\"manifest\": " << man << ", \"walls_s\": [";
        for (std::size_t i = 0; i < loop.walls.size(); ++i)
            rec << (i ? ", " : "") << number(loop.walls[i]);
        rec << "], \"metrics\": {" << metrics.str() << "}}\n";
    }
    if (a.trace) {
        std::ofstream out(stem + ".spans.jsonl");
        out << "{\"manifest\": " << man << "}\n" << spans;
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                w.failures.empty() ? "true" : "false",
                static_cast<unsigned long long>(w.attempted),
                static_cast<unsigned long long>(w.failed),
                metrics.str().c_str());
    std::fflush(stdout);
    return w.failures.empty() ? 0 : 1;
}

} // namespace

int
run(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);

    // Set-up: everything before the first timed operation.
    const double synthSeconds = synthesizePrograms();
    std::unique_ptr<Workload> w = makeWorkload(a.opts);
    const double setupSeconds = secondsSince(gProcessStart);
    if (a.setupOnly) {
        std::printf("setup_s %.9f\n", setupSeconds);
        return 0;
    }

    // Until the report, stdout is stderr: shard processes inherit it,
    // and the result must be the last line of the real stdout.
    std::fflush(stdout);
    const int resultFd = dup(STDOUT_FILENO);
    dup2(STDERR_FILENO, STDOUT_FILENO);

    const Loop loop = closedLoop(*w, a.opts.seconds);
    w->checkReferences();
    Values values;
    std::string spans;
    if (a.trace)
        spans = perLayerValues(*w, synthSeconds, loop, values);
    else
        endToEndValues(*w, a.opts, setupSeconds, loop, values);

    std::fflush(stdout);
    dup2(resultFd, STDOUT_FILENO);
    close(resultFd);
    return report(*w, a, loop, values, spans);
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    return perfbench::run(argc, argv);
}
