#include "figures.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "common/logging.hh"
#include "dispatch/history.hh"
#include "sim/metrics.hh"
#include "sweepio/codec.hh"
#include "sweepio/search_codec.hh"

namespace cfl::bench
{

namespace
{

// ---------------------------------------------------------------------------
// Shared row formatters
// ---------------------------------------------------------------------------

/** The Figure 2/6 scatter table: one row per design with relative area,
 *  geomean speedup, and per-workload speedups. */
Report
perfAreaReport(const std::string &title,
               const std::vector<FrontendKind> &kinds,
               const SweepResult &sweep, const SystemConfig &config)
{
    std::vector<std::string> columns = {"design", "rel. area",
                                        "rel. perf (geomean)"};
    for (const WorkloadId wl : allWorkloads())
        columns.push_back(workloadSlug(wl));

    Report report(title, std::move(columns));
    for (const FrontendKind kind : kinds) {
        const auto speedups = sweep.speedups(kind, FrontendKind::Baseline);
        std::vector<std::string> cells = {
            frontendKindName(kind),
            Report::ratio(relativeArea(kind, config)),
            Report::ratio(
                sweep.geomeanSpeedup(kind, FrontendKind::Baseline)),
        };
        for (const WorkloadId wl : allWorkloads())
            cells.push_back(Report::ratio(speedups.at(wl)));
        report.addRow(std::move(cells));
    }
    return report;
}

/** Coverage table: % of run-0 (baseline) misses each later run
 *  eliminates, one row per workload; optional average row. Columns are
 *  the run labels past the baseline. */
Report
coverageReport(const std::string &title,
               const std::vector<std::string> &labels,
               const FunctionalGrid &grid, bool with_average)
{
    std::vector<std::string> header = {"workload"};
    header.insert(header.end(), labels.begin() + 1, labels.end());
    Report report(title, std::move(header));

    const auto &workloads = allWorkloads();
    std::vector<std::vector<double>> per_run(labels.size() - 1);
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const FunctionalResult &base = grid[w][0];
        std::vector<std::string> row = {workloadName(workloads[w])};
        for (std::size_t run = 1; run < grid[w].size(); ++run) {
            const double cov =
                missCoverage(grid[w][run].btbMisses, base.btbMisses);
            per_run[run - 1].push_back(cov);
            row.push_back(Report::pct(cov, 1));
        }
        report.addRow(std::move(row));
    }
    if (with_average) {
        std::vector<std::string> row = {"average"};
        for (const auto &values : per_run)
            row.push_back(Report::pct(mean(values), 1));
        report.addRow(std::move(row));
    }
    return report;
}

// ---------------------------------------------------------------------------
// Figure 1: BTB MPKI vs capacity (functional, no L1-I)
// ---------------------------------------------------------------------------

constexpr std::size_t kFig01Capacities[] = {1024, 2048, 4096,
                                            8192, 16384, 32768};

FigureSpec
fig01Spec()
{
    FunctionalFigure f;
    for (const std::size_t entries : kFig01Capacities)
        f.runs.push_back(
            {std::to_string(entries / 1024) + "K",
             [entries](WorkloadId wl, const SystemConfig &,
                       const FunctionalConfig &fc) {
                 return runConventionalBtbStudy(wl, entries, 4, 0,
                                                /*with_l1i=*/false, fc);
             }});

    f.report = [](const std::string &title,
                  const std::vector<std::string> &labels,
                  const FunctionalGrid &grid) {
        std::vector<std::string> columns = {"workload"};
        columns.insert(columns.end(), labels.begin(), labels.end());
        Report report(title, std::move(columns));
        const auto &workloads = allWorkloads();
        for (std::size_t w = 0; w < workloads.size(); ++w) {
            std::vector<std::string> row = {workloadName(workloads[w])};
            for (const FunctionalResult &r : grid[w])
                row.push_back(Report::num(r.btbMpki(), 1));
            report.addRow(std::move(row));
        }
        return report;
    };

    return {"fig01", "Figure 1: BTB MPKI vs BTB capacity (entries)",
            std::move(f)};
}

// ---------------------------------------------------------------------------
// Figures 2 and 6: performance/area scatter (timing)
// ---------------------------------------------------------------------------

FigureSpec
fig02Spec()
{
    TimingFigure f;
    f.kinds = {
        FrontendKind::Baseline,      FrontendKind::Fdp,
        FrontendKind::PhantomFdp,    FrontendKind::TwoLevelFdp,
        FrontendKind::TwoLevelShift, FrontendKind::Ideal,
    };
    f.report = [kinds = f.kinds](const std::string &title,
                                 const SweepResult &sweep,
                                 const SystemConfig &config) {
        return perfAreaReport(title, kinds, sweep, config);
    };
    return {"fig02",
            "Figure 2: conventional front-ends "
            "(relative performance vs relative area)",
            std::move(f)};
}

FigureSpec
fig06Spec()
{
    TimingFigure f;
    f.kinds = {
        FrontendKind::Baseline,      FrontendKind::Fdp,
        FrontendKind::PhantomFdp,    FrontendKind::TwoLevelFdp,
        FrontendKind::TwoLevelShift, FrontendKind::Confluence,
        FrontendKind::Ideal,
    };
    f.report = [kinds = f.kinds](const std::string &title,
                                 const SweepResult &sweep,
                                 const SystemConfig &config) {
        return perfAreaReport(title, kinds, sweep, config);
    };
    // Headline: fraction of the Ideal improvement each design captures.
    f.footer = [](const SweepResult &sweep) {
        const double ideal = sweep.geomeanSpeedup(FrontendKind::Ideal,
                                                  FrontendKind::Baseline);
        const double two_shift = sweep.geomeanSpeedup(
            FrontendKind::TwoLevelShift, FrontendKind::Baseline);
        const double confluence = sweep.geomeanSpeedup(
            FrontendKind::Confluence, FrontendKind::Baseline);
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "\nfraction of Ideal improvement: "
                      "2LevelBTB+SHIFT %.0f%% (paper: 62%%), "
                      "Confluence %.0f%% (paper: 85%%)\n",
                      100.0 * fractionOfIdeal(two_shift, ideal),
                      100.0 * fractionOfIdeal(confluence, ideal));
        return std::string(buf);
    };
    return {"fig06",
            "Figure 6: Confluence vs conventional front-ends "
            "(relative performance vs relative area)",
            std::move(f)};
}

// ---------------------------------------------------------------------------
// Figure 7: per-workload speedup, all designs with SHIFT (timing)
// ---------------------------------------------------------------------------

FigureSpec
fig07Spec()
{
    TimingFigure f;
    f.kinds = {
        FrontendKind::PhantomShift,
        FrontendKind::TwoLevelShift,
        FrontendKind::Confluence,
        FrontendKind::IdealBtbShift,
    };
    f.report = [kinds = f.kinds](const std::string &title,
                                 const SweepResult &sweep,
                                 const SystemConfig &) {
        std::vector<std::string> columns = {"workload"};
        for (const FrontendKind k : kinds)
            columns.push_back(frontendKindName(k));
        Report report(title, std::move(columns));
        for (const WorkloadId wl : allWorkloads()) {
            const double base = sweep.ipc(FrontendKind::Baseline, wl);
            std::vector<std::string> row = {workloadName(wl)};
            for (const FrontendKind k : kinds)
                row.push_back(Report::ratio(sweep.ipc(k, wl) / base));
            report.addRow(std::move(row));
        }
        return report;
    };
    return {"fig07",
            "Figure 7: speedup over 1K-entry BTB, all designs with SHIFT",
            std::move(f)};
}

// ---------------------------------------------------------------------------
// Figure 8: AirBTB miss-coverage breakdown (functional)
// ---------------------------------------------------------------------------

FigureSpec
fig08Spec()
{
    struct Step
    {
        const char *name;
        bool eager;
        bool fillFromPrefetch;
        bool sync;
        bool useShift;
    };
    // Steps are AirBTB ablations applied one at a time; the "Capacity"
    // run before them is a conventional BTB holding as many
    // individually-managed entries as AirBTB's storage budget affords
    // (~1.5K: 512 bundles x 3 entries), isolating the pure
    // tag-amortization gain as the paper's decomposition does.
    static const Step kSteps[] = {
        {"+Spatial", true, false, false, false},
        {"+Prefetch", true, true, false, true},
        {"+BlockOrg", true, true, true, true},
    };

    FunctionalFigure f;
    f.runs.push_back({"1K conventional",
                      [](WorkloadId wl, const SystemConfig &,
                         const FunctionalConfig &fc) {
                          return runConventionalBtbStudy(wl, 1024, 4, 64,
                                                         true, fc);
                      }});
    f.runs.push_back({"Capacity",
                      [](WorkloadId wl, const SystemConfig &,
                         const FunctionalConfig &fc) {
                          return runConventionalBtbStudy(wl, 1536, 6, 32,
                                                         true, fc);
                      }});
    for (const Step &step : kSteps)
        f.runs.push_back(
            {step.name,
             [step](WorkloadId wl, const SystemConfig &config,
                    const FunctionalConfig &fc) {
                 FunctionalSetup setup;
                 setup.useL1I = true;
                 setup.useShift = step.useShift;
                 return runFunctionalStudy(
                            wl, setup, config, fc,
                            [&step](const Program &program,
                                    const Predecoder &pre) {
                                AirBtbParams p;
                                p.eagerInsert = step.eager;
                                p.fillFromPrefetch = step.fillFromPrefetch;
                                p.syncWithL1I = step.sync;
                                return std::make_unique<AirBtb>(
                                    p, program.image, pre);
                            })
                     .result;
             }});

    f.report = [](const std::string &title,
                  const std::vector<std::string> &labels,
                  const FunctionalGrid &grid) {
        return coverageReport(title, labels, grid,
                              /*with_average=*/false);
    };

    return {"fig08",
            "Figure 8: AirBTB miss-coverage breakdown vs 1K conventional "
            "BTB (cumulative % of misses eliminated)",
            std::move(f)};
}

// ---------------------------------------------------------------------------
// Figure 9: misses eliminated by PhantomBTB / AirBTB / 16K BTB
// ---------------------------------------------------------------------------

FigureSpec
fig09Spec()
{
    FunctionalFigure f;
    f.runs.push_back({"1K conventional",
                      [](WorkloadId wl, const SystemConfig &,
                         const FunctionalConfig &fc) {
                          return runConventionalBtbStudy(wl, 1024, 4, 64,
                                                         true, fc);
                      }});
    // PhantomBTB: shared virtualized history, no instruction prefetcher.
    f.runs.push_back(
        {"PhantomBTB",
         [](WorkloadId wl, const SystemConfig &config,
            const FunctionalConfig &fc) {
             FunctionalSetup plain;
             plain.useL1I = true;
             plain.useShift = false;
             auto history =
                 std::make_shared<PhantomSharedHistory>(config.phantom);
             return runFunctionalStudy(
                        wl, plain, config, fc,
                        [&](const Program &, const Predecoder &) {
                            return std::make_unique<PhantomBtb>(
                                config.phantom, history, 0);
                        })
                 .result;
         }});
    // AirBTB inside Confluence (with SHIFT).
    f.runs.push_back(
        {"AirBTB",
         [](WorkloadId wl, const SystemConfig &config,
            const FunctionalConfig &fc) {
             FunctionalSetup with_shift;
             with_shift.useL1I = true;
             with_shift.useShift = true;
             return runFunctionalStudy(
                        wl, with_shift, config, fc,
                        [](const Program &program, const Predecoder &pre) {
                            return std::make_unique<AirBtb>(
                                AirBtbParams{}, program.image, pre);
                        })
                 .result;
         }});
    f.runs.push_back({"16K BTB",
                      [](WorkloadId wl, const SystemConfig &,
                         const FunctionalConfig &fc) {
                          return runConventionalBtbStudy(wl, 16 * 1024, 4,
                                                         0, true, fc);
                      }});

    f.report = [](const std::string &title,
                  const std::vector<std::string> &labels,
                  const FunctionalGrid &grid) {
        return coverageReport(title, labels, grid,
                              /*with_average=*/true);
    };

    return {"fig09",
            "Figure 9: BTB misses eliminated vs 1K conventional BTB",
            std::move(f)};
}

// ---------------------------------------------------------------------------
// Figure 10: AirBTB bundle/overflow sensitivity (functional)
// ---------------------------------------------------------------------------

constexpr std::pair<unsigned, unsigned> kFig10Configs[] = {
    {3, 0}, {3, 32}, {4, 0}, {4, 32}};

FigureSpec
fig10Spec()
{
    FunctionalFigure f;
    f.runs.push_back({"1K conventional",
                      [](WorkloadId wl, const SystemConfig &,
                         const FunctionalConfig &fc) {
                          return runConventionalBtbStudy(wl, 1024, 4, 64,
                                                         true, fc);
                      }});
    for (const auto &[b, ob] : kFig10Configs)
        f.runs.push_back(
            {"B:" + std::to_string(b) + ",OB:" + std::to_string(ob),
             [b = b, ob = ob](WorkloadId wl, const SystemConfig &config,
                              const FunctionalConfig &fc) {
                 FunctionalSetup setup;
                 setup.useL1I = true;
                 setup.useShift = true;
                 return runFunctionalStudy(
                            wl, setup, config, fc,
                            [b, ob](const Program &program,
                                    const Predecoder &pre) {
                                AirBtbParams p;
                                p.branchEntries = b;
                                p.overflowEntries = ob;
                                return std::make_unique<AirBtb>(
                                    p, program.image, pre);
                            })
                     .result;
             }});

    f.report = [](const std::string &title,
                  const std::vector<std::string> &labels,
                  const FunctionalGrid &grid) {
        return coverageReport(title, labels, grid,
                              /*with_average=*/false);
    };

    return {"fig10",
            "Figure 10: AirBTB sensitivity "
            "(% of 1K-BTB misses eliminated)",
            std::move(f)};
}

// ---------------------------------------------------------------------------
// Pareto figure: the adaptive search's speedup-vs-storage frontier
// ---------------------------------------------------------------------------

std::string
readWholeFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        cfl_fatal("cannot open \"%s\" for reading", path.c_str());
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

std::vector<sweepio::ParetoRow>
readParetoJson(const std::string &path)
{
    return sweepio::decode<sweepio::ParetoDump>(readWholeFile(path))
        .candidates;
}

FigureSpec
paretoSpec()
{
    ArtifactFigure f;
    f.report = [](const std::string &title,
                  const std::string &input_path) {
        Report report(title, {"candidate", "kind", "storage (KB)",
                              "area (mm2)", "geomean speedup", "front"});
        for (const sweepio::ParetoRow &row : readParetoJson(input_path))
            report.addRow({row.candidate, frontendKindSlug(row.kind),
                           Report::num(row.storageKb, 2),
                           Report::num(row.areaMm2, 3),
                           Report::ratio(row.score),
                           row.onFront ? "*" : ""});
        return report;
    };
    f.footer = [](const std::string &input_path) {
        const std::vector<sweepio::ParetoRow> rows =
            readParetoJson(input_path);
        std::size_t front = 0;
        const sweepio::ParetoRow *best = nullptr;
        for (const sweepio::ParetoRow &row : rows) {
            front += row.onFront ? 1 : 0;
            if (best == nullptr || row.score > best->score)
                best = &row;
        }
        if (best == nullptr)
            return std::string("\nno candidates\n");
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "\nPareto front: %zu of %zu candidates; best %s "
                      "(%.4fx at %.1f KB)\n",
                      front, rows.size(), best->candidate.c_str(),
                      best->score, best->storageKb);
        return std::string(buf);
    };
    return {"pareto",
            "Adaptive search: geomean speedup vs dedicated front-end "
            "storage (Pareto front starred)",
            std::move(f)};
}

// ---------------------------------------------------------------------------
// History figure: the regression dashboard over CI's history store
// ---------------------------------------------------------------------------

FigureSpec
historySpec()
{
    ArtifactFigure f;
    f.report = [](const std::string &title,
                  const std::string &input_path) {
        const dispatch::RegressionHistory history(input_path);
        const auto &entries = history.entries();

        // Columns: the union of kind slugs in first-appearance order,
        // so a design added mid-history grows a column, not a reparse.
        std::vector<std::string> kinds;
        for (const dispatch::HistoryEntry &e : entries)
            for (const auto &[kind, geomean] : e.geomeans)
                if (std::find(kinds.begin(), kinds.end(), kind) ==
                    kinds.end())
                    kinds.push_back(kind);

        std::vector<std::string> columns = {"run"};
        columns.insert(columns.end(), kinds.begin(), kinds.end());
        Report report(title, std::move(columns));

        const auto lookup =
            [](const dispatch::HistoryEntry &e,
               const std::string &kind) -> const double * {
            for (const auto &[k, g] : e.geomeans)
                if (k == kind)
                    return &g;
            return nullptr;
        };

        for (std::size_t i = 0; i < entries.size(); ++i) {
            std::vector<std::string> row = {entries[i].tag};
            for (const std::string &kind : kinds) {
                const double *cur = lookup(entries[i], kind);
                if (cur == nullptr) {
                    row.push_back("-");
                    continue;
                }
                const double *prev =
                    i > 0 ? lookup(entries[i - 1], kind) : nullptr;
                char buf[64];
                if (prev != nullptr && *prev != 0.0)
                    std::snprintf(buf, sizeof(buf), "%.4f (%+.2f%%)",
                                  *cur, 100.0 * (*cur / *prev - 1.0));
                else
                    std::snprintf(buf, sizeof(buf), "%.4f", *cur);
                row.push_back(buf);
            }
            report.addRow(std::move(row));
        }
        return report;
    };
    f.footer = [](const std::string &input_path) {
        const dispatch::RegressionHistory history(input_path);
        const auto deltas = history.deltas();
        if (deltas.empty())
            return std::string(
                "\nfewer than two runs; no deltas to report\n");
        std::string out = "\nnewest vs previous:";
        for (const dispatch::RegressionDelta &d : deltas) {
            char buf[96];
            std::snprintf(buf, sizeof(buf), " %s %+.2f%%",
                          d.kind.c_str(), 100.0 * d.delta);
            out += buf;
        }
        out += "\n";
        return out;
    };
    return {"history",
            "Regression history: geomean speedup over Baseline per run "
            "(delta vs previous run)",
            std::move(f)};
}

// ---------------------------------------------------------------------------
// Table 2: branch density in demand-fetched blocks (functional)
// ---------------------------------------------------------------------------

FigureSpec
table2Spec()
{
    FunctionalFigure f;
    f.runs.push_back({"1K conventional",
                      [](WorkloadId wl, const SystemConfig &,
                         const FunctionalConfig &fc) {
                          return runConventionalBtbStudy(wl, 1024, 4, 64,
                                                         true, fc);
                      }});

    f.report = [](const std::string &title,
                  const std::vector<std::string> &,
                  const FunctionalGrid &grid) {
        static const char *kPaperStatic[] = {"3.6", "2.5", "3.4", "3.5",
                                             "4.3"};
        static const char *kPaperDynamic[] = {"1.4", "1.6", "1.4", "1.5",
                                              "1.5"};
        Report report(title,
                      {"workload", "static (paper)", "static (measured)",
                       "dynamic (paper)", "dynamic (measured)"});
        const auto &workloads = allWorkloads();
        for (std::size_t w = 0; w < workloads.size(); ++w) {
            const FunctionalResult &r = grid[w][0];
            report.addRow({workloadName(workloads[w]), kPaperStatic[w],
                           Report::num(r.staticDensity(), 1),
                           kPaperDynamic[w],
                           Report::num(r.dynamicDensity(), 1)});
        }
        return report;
    };

    return {"table2", "Table 2: branch density in demand-fetched blocks",
            std::move(f)};
}

// ---------------------------------------------------------------------------
// Runner plumbing
// ---------------------------------------------------------------------------

/** Write @p text to @p path, or to stdout when path is "-". */
void
writeText(const std::string &path, const std::string &text)
{
    if (path == "-") {
        std::fwrite(text.data(), 1, text.size(), stdout);
        std::fflush(stdout);
        return;
    }
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        cfl_fatal("cannot open \"%s\" for writing", path.c_str());
    out << text;
    if (!out.flush())
        cfl_fatal("failed writing \"%s\"", path.c_str());
}

} // namespace

const std::vector<FigureSpec> &
figureRegistry()
{
    static const std::vector<FigureSpec> kFigures = [] {
        std::vector<FigureSpec> figures;
        figures.push_back(fig01Spec());
        figures.push_back(fig02Spec());
        figures.push_back(fig06Spec());
        figures.push_back(fig07Spec());
        figures.push_back(fig08Spec());
        figures.push_back(fig09Spec());
        figures.push_back(fig10Spec());
        figures.push_back(table2Spec());
        figures.push_back(paretoSpec());
        figures.push_back(historySpec());
        return figures;
    }();
    return kFigures;
}

const FigureSpec *
findFigure(const std::string &name)
{
    for (const FigureSpec &spec : figureRegistry())
        if (spec.name == name)
            return &spec;
    return nullptr;
}

int
runFigureMain(const std::string &name, int argc, char **argv)
{
    const FigureSpec *spec = findFigure(name);
    cfl_assert(spec != nullptr, "figure \"%s\" is not registered",
               name.c_str());

    std::string csv_path, json_path, input_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--csv" && i + 1 < argc)
            csv_path = argv[++i];
        else if (arg == "--json" && i + 1 < argc)
            json_path = argv[++i];
        else if (arg == "--input" && i + 1 < argc)
            input_path = argv[++i];
        else
            cfl_fatal("usage: %s [--csv <path|->] [--json <path|->] "
                      "[--input <path>]",
                      argv[0]);
    }

    if (const auto *artifact = std::get_if<ArtifactFigure>(&spec->body)) {
        if (input_path.empty())
            cfl_fatal("figure \"%s\" renders an artifact file; pass "
                      "--input <path>",
                      name.c_str());
        if (!json_path.empty())
            cfl_fatal("--json dumps a timing SweepResult; figure \"%s\" "
                      "is artifact-backed (use --csv)",
                      name.c_str());
        const Report report = artifact->report(spec->title, input_path);
        report.print();
        if (artifact->footer) {
            const std::string footer = artifact->footer(input_path);
            std::fwrite(footer.data(), 1, footer.size(), stdout);
            std::fflush(stdout);
        }
        if (!csv_path.empty())
            writeText(csv_path, report.csv());
        return 0;
    }
    if (!input_path.empty())
        cfl_fatal("--input feeds an artifact figure; figure \"%s\" "
                  "sweeps its own points",
                  name.c_str());

    const RunScale scale = currentScale();
    SweepEngine engine;

    if (const auto *timing = std::get_if<TimingFigure>(&spec->body)) {
        const SystemConfig config = makeSystemConfig(scale.timingCores);
        // The sweep needs the Baseline normalization points even when
        // the figure doesn't print a Baseline row.
        const SweepResult sweep =
            runTimingSweep(withBaseline(timing->kinds), allWorkloads(),
                           config, scale, engine);
        const Report report = timing->report(spec->title, sweep, config);
        report.print();
        if (timing->footer) {
            const std::string footer = timing->footer(sweep);
            std::fwrite(footer.data(), 1, footer.size(), stdout);
            std::fflush(stdout);
        }
        if (!csv_path.empty())
            writeText(csv_path, report.csv());
        if (!json_path.empty())
            writeText(json_path, sweepio::encodeResult(sweep));
        return 0;
    }

    const auto &functional = std::get<FunctionalFigure>(spec->body);
    if (!json_path.empty())
        cfl_fatal("--json dumps a timing SweepResult; figure \"%s\" is "
                  "functional (use --csv)",
                  name.c_str());

    const SystemConfig config = makeSystemConfig(1);
    const FunctionalConfig fc = functionalConfigFromScale(scale);
    const auto &workloads = allWorkloads();
    const FunctionalGrid grid = sweepMap2(
        engine, workloads.size(), functional.runs.size(),
        [&](std::size_t w, std::size_t run) {
            return functional.runs[run].run(workloads[w], config, fc);
        });

    std::vector<std::string> labels;
    for (const FunctionalRun &run : functional.runs)
        labels.push_back(run.label);
    const Report report = functional.report(spec->title, labels, grid);
    report.print();
    if (!csv_path.empty())
        writeText(csv_path, report.csv());
    return 0;
}

} // namespace cfl::bench
