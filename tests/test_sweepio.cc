/**
 * @file Tests for the sweep serialization layer: codec round trips,
 * shard partition invariants, and the headline guarantee that a
 * sharded, file-mediated sweep merges into a result bit-identical to
 * the unsharded in-process run (the contract tools/confluence_sweep.cc
 * is built on).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <type_traits>

#include "death_test_style.hh"
#include "dispatch/history.hh"
#include "dispatch/result_cache.hh"
#include "search/pareto.hh"
#include "sim/metrics.hh"
#include "sweepio/codec.hh"
#include "sweepio/digest.hh"
#include "sweepio/json.hh"
#include "sweepio/queue_codec.hh"
#include "sweepio/search_codec.hh"
#include "sweepio/shard.hh"

using namespace cfl;
using namespace cfl::sweepio;

namespace
{

/** The CONFLUENCE_SCALE=quick timing preset, spelled out so these tests
 *  can reuse test_calibration.cc's golden values regardless of the test
 *  process's environment. */
RunScale
quickScale()
{
    RunScale scale;
    scale.timingWarmupInsts = 800'000;
    scale.timingMeasureInsts = 400'000;
    scale.timingCores = 1;
    return scale;
}

std::vector<SweepPoint>
goldenPoints()
{
    std::vector<SweepPoint> points;
    for (const FrontendKind kind :
         {FrontendKind::Baseline, FrontendKind::Confluence})
        for (const WorkloadId wl :
             {WorkloadId::DssQry, WorkloadId::WebFrontend})
            points.push_back({kind, wl, quickScale()});
    return points;
}

void
expectScaleEq(const RunScale &a, const RunScale &b)
{
    EXPECT_EQ(a.timingWarmupInsts, b.timingWarmupInsts);
    EXPECT_EQ(a.timingMeasureInsts, b.timingMeasureInsts);
    EXPECT_EQ(a.timingCores, b.timingCores);
    EXPECT_EQ(a.functionalWarmupInsts, b.functionalWarmupInsts);
    EXPECT_EQ(a.functionalMeasureInsts, b.functionalMeasureInsts);
}

void
expectPointEq(const SweepPoint &a, const SweepPoint &b)
{
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.workload, b.workload);
    expectScaleEq(a.scale, b.scale);
}

/** Every serialized field must survive exactly — no tolerances. */
void
expectIdentical(const SweepResult &a, const SweepResult &b)
{
    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        const SweepOutcome &x = a.points[i];
        const SweepOutcome &y = b.points[i];
        expectPointEq(x.point, y.point);
        EXPECT_EQ(x.seed, y.seed);
        ASSERT_EQ(x.metrics.cores.size(), y.metrics.cores.size());
        for (std::size_t c = 0; c < x.metrics.cores.size(); ++c) {
            const CoreMetrics &m = x.metrics.cores[c];
            const CoreMetrics &n = y.metrics.cores[c];
            EXPECT_EQ(m.retired, n.retired);
            EXPECT_EQ(m.cycles, n.cycles);
            EXPECT_EQ(m.btbTakenLookups, n.btbTakenLookups);
            EXPECT_EQ(m.btbTakenMisses, n.btbTakenMisses);
            EXPECT_EQ(m.misfetches, n.misfetches);
            EXPECT_EQ(m.condMispredicts, n.condMispredicts);
            EXPECT_EQ(m.l1iDemandFetches, n.l1iDemandFetches);
            EXPECT_EQ(m.l1iDemandMisses, n.l1iDemandMisses);
            EXPECT_EQ(m.l1iInFlightHits, n.l1iInFlightHits);
            EXPECT_EQ(m.btbL2StallCycles, n.btbL2StallCycles);
            EXPECT_EQ(m.fetchMissStallCycles, n.fetchMissStallCycles);
        }
        EXPECT_DOUBLE_EQ(x.metrics.meanIpc(), y.metrics.meanIpc());
        EXPECT_DOUBLE_EQ(x.metrics.meanBtbMpki(), y.metrics.meanBtbMpki());
    }
}

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + "sweepio_" + name;
}

} // namespace

// ---------------------------------------------------------------------------
// Codec round trips
// ---------------------------------------------------------------------------

TEST(SweepioCodec, PointRoundTripsEveryCoordinate)
{
    RunScale scale;
    scale.timingWarmupInsts = 123;
    scale.timingMeasureInsts = 456;
    scale.timingCores = 7;
    scale.functionalWarmupInsts = 89;
    scale.functionalMeasureInsts = 1011;

    for (const FrontendKind kind : allFrontendKinds()) {
        for (const WorkloadId wl : allWorkloads()) {
            const SweepPoint point{kind, wl, scale};
            const SweepPoint back = decode<SweepPoint>(encode(point));
            expectPointEq(point, back);
        }
    }
}

TEST(SweepioCodec, DesignOverlayRoundTripsEveryField)
{
    SweepPoint point{FrontendKind::Confluence, WorkloadId::OltpDb2,
                     quickScale()};
    point.overlay.btbEntries = 1;
    point.overlay.btbWays = 2;
    point.overlay.l2Entries = 3;
    point.overlay.airBundles = 4;
    point.overlay.airBranchEntries = 5;
    point.overlay.airOverflowEntries = 6;
    point.overlay.shiftHistoryEntries = 7;
    point.overlay.shiftStreamDepth = 8;

    const SweepPoint back = decode<SweepPoint>(encode(point));
    expectPointEq(point, back);
    EXPECT_EQ(back.overlay, point.overlay);
    EXPECT_TRUE(back.overlay.enabled());
    // Stable bytes: re-encoding reproduces the line.
    EXPECT_EQ(encode(back), encode(point));
}

TEST(SweepioCodec, IdentityOverlayKeepsPreOverlayEncoding)
{
    // Every point that existed before the design-space search carries
    // the identity overlay, which must be invisible in the encoding —
    // otherwise existing digests, cache keys, and golden files would
    // all shift.
    const SweepPoint point{FrontendKind::Baseline, WorkloadId::DssQry,
                           quickScale()};
    EXPECT_FALSE(point.overlay.enabled());
    const std::string enc = encode(point);
    EXPECT_EQ(enc.find("overlay"), std::string::npos);
    EXPECT_FALSE(decode<SweepPoint>(enc).overlay.enabled());

    // And a partially-set overlay (any nonzero field) is not identity.
    SweepPoint overlaid = point;
    overlaid.overlay.l2Entries = 8192;
    EXPECT_TRUE(overlaid.overlay.enabled());
    EXPECT_NE(encode(overlaid).find("overlay"), std::string::npos);
}

TEST(SweepioCodec, SlugsRoundTrip)
{
    for (const FrontendKind kind : allFrontendKinds())
        EXPECT_EQ(frontendKindFromSlug(frontendKindSlug(kind)), kind);
    for (const WorkloadId wl : allWorkloads())
        EXPECT_EQ(workloadFromSlug(workloadSlug(wl)), wl);
}

TEST(SweepioCodec, OutcomeRoundTripIsBitIdentical)
{
    SweepOutcome outcome;
    outcome.point = {FrontendKind::TwoLevelShift, WorkloadId::OltpOracle,
                     quickScale()};
    outcome.seed = 0xdeadbeefcafe1234ull;
    // Distinct values in every counter so a field swap can't hide.
    CoreMetrics core;
    core.retired = 1;
    core.cycles = 2;
    core.btbTakenLookups = 3;
    core.btbTakenMisses = 4;
    core.misfetches = 5;
    core.condMispredicts = 6;
    core.l1iDemandFetches = 7;
    core.l1iDemandMisses = 8;
    core.l1iInFlightHits = 9;
    core.btbL2StallCycles = 10;
    core.fetchMissStallCycles = 11;
    outcome.metrics.cores.push_back(core);
    core.retired = ~0ull; // 64-bit extremes must survive too
    outcome.metrics.cores.push_back(core);

    SweepResult result;
    result.points.push_back(outcome);
    const SweepResult back = decodeResult(encodeResult(result));
    expectIdentical(result, back);

    // The encoding itself is stable: re-encoding reproduces the bytes.
    EXPECT_EQ(encodeResult(back), encodeResult(result));
}

TEST(SweepioCodec, SpecFileRoundTrips)
{
    const std::string path = tmpPath("spec.jsonl");
    const std::vector<SweepPoint> points = goldenPoints();
    writePoints(path, points);
    const std::vector<SweepPoint> back = readPoints(path);
    ASSERT_EQ(back.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i)
        expectPointEq(points[i], back[i]);
    std::remove(path.c_str());
}

TEST(SweepioCodec, MalformedLineIsFatal)
{
    EXPECT_EXIT(decode<SweepPoint>("{\"kind\":\"baseline\""),
                ::testing::ExitedWithCode(1), "malformed sweep JSON");
    EXPECT_EXIT(decode<SweepPoint>("{\"kind\":\"no_such_design\",\"workload\":"
                            "\"dss_qry\",\"scale\":{}}"),
                ::testing::ExitedWithCode(1), "unknown front-end kind");
    EXPECT_EXIT(readPoints("/nonexistent/sweep/spec.jsonl"),
                ::testing::ExitedWithCode(1), "cannot open");
}

TEST(SweepioCodec, NarrowedFieldsAreRangeCheckedOnDecode)
{
    // timing_cores is an unsigned member: 2^32 + 2 must not wrap to 2
    // (which would re-encode, and digest, as a different point).
    const std::string cores =
        R"({"kind":"baseline","workload":"dss_qry",)"
        R"("scale":{"timing_warmup":800000,"timing_measure":400000,)"
        R"("timing_cores":4294967298,"functional_warmup":3000000,)"
        R"("functional_measure":5000000}})";
    // stop is a bool: 2 is not a flag, and must not re-encode as 1.
    const std::string stop =
        R"({"at_ms":0,"stop":2,"pending":0,"claimed":0,"done":0,)"
        R"("cancelled":0,"quarantined":0,"leases":[]})";

    SweepPoint point;
    EXPECT_FALSE(tryDecode(cores, &point));
    QueueStatusRecord status;
    EXPECT_FALSE(tryDecode(stop, &status));
    EXPECT_EXIT(decode<SweepPoint>(cores), ::testing::ExitedWithCode(1),
                "malformed sweep JSON");
    EXPECT_EXIT(decode<QueueStatusRecord>(stop),
                ::testing::ExitedWithCode(1), "malformed queue record");

    // The widest in-range values still decode.
    std::string widest = cores;
    widest.replace(widest.find("4294967298"), 10, "4294967295");
    ASSERT_TRUE(tryDecode(widest, &point));
    EXPECT_EQ(point.scale.timingCores, 4294967295u);
    std::string stopped = stop;
    stopped.replace(stopped.find("\"stop\":2"), 8, "\"stop\":1");
    ASSERT_TRUE(tryDecode(stopped, &status));
    EXPECT_TRUE(status.stop);
}

// ---------------------------------------------------------------------------
// Queue record codecs and JSON string escaping
// ---------------------------------------------------------------------------

TEST(SweepioQueueCodec, RecordsRoundTripIncludingEscapedStrings)
{
    TaskRecord task;
    task.id = "0123456789abcdef-r11223344-a2";
    task.seq = 42;
    // The strings a real queue holds are shell commands: single
    // quotes, spaces, and the occasional double quote or backslash.
    task.command = "'/bin/x' --points '/spec dir/it'\\''s.jsonl' "
                   "--out 'o\"u\\t.jsonl'";
    task.result = "o\"u\\t.jsonl";
    TaskRecord task_back = decode<TaskRecord>(encode(task));
    EXPECT_EQ(task_back.id, task.id);
    EXPECT_EQ(task_back.seq, task.seq);
    EXPECT_EQ(task_back.command, task.command);
    EXPECT_EQ(task_back.result, task.result);

    LeaseRecord lease{"task-1", "host\\9:123", 1234567890123ull};
    LeaseRecord lease_back = decode<LeaseRecord>(encode(lease));
    EXPECT_EQ(lease_back.id, lease.id);
    EXPECT_EQ(lease_back.owner, lease.owner);
    EXPECT_EQ(lease_back.deadlineMs, lease.deadlineMs);

    DoneRecord done{"task-1", "worker\"2", 137};
    DoneRecord done_back = decode<DoneRecord>(encode(done));
    EXPECT_EQ(done_back.id, done.id);
    EXPECT_EQ(done_back.owner, done.owner);
    EXPECT_EQ(done_back.exitCode, done.exitCode);

    for (const char *op : {"enqueue", "cancel", "reclaim", "done"}) {
        QueueLogRecord record;
        record.op = op;
        record.task = task;
        record.done = done;
        QueueLogRecord back = decode<QueueLogRecord>(encode(record));
        EXPECT_EQ(back.op, record.op);
        if (back.op == "done") {
            // A done line carries the DoneRecord; task.id mirrors it.
            EXPECT_EQ(back.task.id, done.id);
            EXPECT_EQ(back.done.owner, done.owner);
            EXPECT_EQ(back.done.exitCode, done.exitCode);
        } else {
            EXPECT_EQ(back.task.id, task.id);
        }
        if (back.op == "enqueue") {
            EXPECT_EQ(back.task.command, task.command);
        }
    }

    // Control bytes have no escape in this dialect; writers must die
    // rather than wedge the store.
    EXPECT_EXIT((void)escapeJsonString("line1\nline2"),
                ::testing::ExitedWithCode(1), "control byte");
}

TEST(SweepioQueueCodec, QueueStatusRoundTrips)
{
    // Empty snapshot: a fresh queue with no leases.
    QueueStatusRecord empty;
    empty.atMs = 1700000000000ull;
    const QueueStatusRecord empty_back =
        decode<QueueStatusRecord>(encode(empty));
    EXPECT_EQ(empty_back.atMs, empty.atMs);
    EXPECT_TRUE(empty_back.leases.empty());

    // Fully populated.
    QueueStatusRecord st;
    st.atMs = 1700000000123ull;
    st.stop = true;
    st.pending = 5;
    st.claimed = 2;
    st.done = 100;
    st.cancelled = 3;
    st.quarantined = 1;
    st.leases.push_back({"cafe-r0-a0", "w\"1", 1500, 58500});
    st.leases.push_back({"cafe-r0-a1", "w:2", 0, 0});
    const QueueStatusRecord back =
        decode<QueueStatusRecord>(encode(st));
    EXPECT_EQ(back.atMs, st.atMs);
    EXPECT_EQ(back.stop, true);
    EXPECT_EQ(back.pending, 5u);
    EXPECT_EQ(back.claimed, 2u);
    EXPECT_EQ(back.done, 100u);
    EXPECT_EQ(back.cancelled, 3u);
    EXPECT_EQ(back.quarantined, 1u);
    ASSERT_EQ(back.leases.size(), 2u);
    EXPECT_EQ(back.leases[0].owner, "w\"1");
    EXPECT_EQ(back.leases[0].heartbeatAgeMs, 1500u);
    EXPECT_EQ(back.leases[0].remainingMs, 58500u);
    // Stable encoding: re-encoding the decoded record reproduces the
    // bytes, so snapshot artifacts diff cleanly.
    EXPECT_EQ(encode(back), encode(st));
}

// ---------------------------------------------------------------------------
// The search-journal dialect (search.jsonl)
// ---------------------------------------------------------------------------

namespace
{

/** One record of every search.jsonl type, fields fully populated. */
std::vector<SearchRecord>
sampleSearchRecords()
{
    SearchRecord header;
    header.type = "header";
    header.strategy = "halving";
    header.seed = 7;
    header.space = "kinds=fdp,confluence;btb_entries=512,1024";
    header.scaleName = "quick";
    header.budget = 40;
    header.codeVersion = "v\"1\\a"; // escapes must survive

    SearchRecord round;
    round.type = "round";
    round.round = 3;

    SearchRecord eval;
    eval.type = "eval";
    eval.round = 3;
    eval.candidate = "fdp+btb_entries=512";
    eval.pointKey = std::string(16, 'f');

    SearchRecord decision;
    decision.type = "decision";
    decision.round = 3;
    decision.candidate = "fdp+btb_entries=512";
    decision.action = "keep";
    decision.scoreBits = doubleBits(1.0625);
    decision.costKbBits = doubleBits(9.901);
    decision.costMm2Bits = doubleBits(0.0801);

    SearchRecord done;
    done.type = "done";
    done.round = 5; // total rounds
    done.candidate = "confluence";
    done.scoreBits = doubleBits(1.2175843611061371);
    done.costKbBits = doubleBits(10.2);
    done.costMm2Bits = doubleBits(0.08);

    return {header, round, eval, decision, done};
}

} // namespace

TEST(SweepioSearchCodec, EveryRecordTypeRoundTripsBitIdentically)
{
    for (const SearchRecord &record : sampleSearchRecords()) {
        const std::string line = encode(record);
        const SearchRecord back = decode<SearchRecord>(line);
        EXPECT_EQ(back, record) << line;
        // Stable bytes: resume's byte-verification depends on this.
        EXPECT_EQ(encode(back), line);
    }
}

TEST(SweepioSearchCodec, MalformedRecordsAreRejected)
{
    SearchRecord out;
    EXPECT_FALSE(tryDecode("", &out));
    EXPECT_FALSE(tryDecode("{}", &out));
    EXPECT_FALSE(
        tryDecode("{\"type\":\"no_such_type\"}", &out));
    // A valid record with trailing garbage is corruption, not a record.
    const std::string good =
        encode(sampleSearchRecords()[1]);
    EXPECT_FALSE(tryDecode(good + "x", &out));
    EXPECT_TRUE(tryDecode(good, &out));
}

TEST(SweepioSearchCodec, JournalLoaderSkipsTornTailAtEveryOffset)
{
    const std::vector<SearchRecord> records = sampleSearchRecords();
    const std::string good = encode(records[0]);
    const std::string tail = encode(records[3]);
    const std::string path = tmpPath("search_journal.jsonl");

    // Missing file = empty journal (a first run with --resume).
    std::remove(path.c_str());
    EXPECT_TRUE(readSearchJournal(path).empty());

    for (std::size_t cut = 0; cut < tail.size(); ++cut) {
        {
            std::ofstream out(path, std::ios::trunc);
            out << good << '\n' << tail.substr(0, cut);
        }
        std::vector<std::string> raw;
        const std::vector<SearchRecord> loaded =
            readSearchJournal(path, &raw);
        ASSERT_EQ(loaded.size(), 1u) << "offset " << cut;
        EXPECT_EQ(loaded[0], records[0]);
        ASSERT_EQ(raw.size(), 1u);
        EXPECT_EQ(raw[0], good);
    }

    // The untruncated journal loads both records, raw lines aligned.
    {
        std::ofstream out(path, std::ios::trunc);
        out << good << '\n' << tail << '\n';
    }
    std::vector<std::string> raw;
    const std::vector<SearchRecord> loaded =
        readSearchJournal(path, &raw);
    ASSERT_EQ(loaded.size(), 2u);
    EXPECT_EQ(loaded[1], records[3]);
    ASSERT_EQ(raw.size(), 2u);
    EXPECT_EQ(raw[1], tail);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Golden bytes: one pinned line per record shape. Existing caches,
// journals and histories, and every digest and cache key, depend on
// these exact bytes, so any drift fails here, not in a downstream cmp.
// ---------------------------------------------------------------------------

namespace
{

/** One record of every shape the stores write. */
struct GoldenRecords
{
    SweepPoint plain, sampled, overlaid, both;
    SweepOutcome exact, sampledOutcome;
    CacheEntry entry;
    TaskRecord task;
    LeaseRecord lease;
    DoneRecord done;
    QueueStatusRecord emptyStatus, fullStatus;
    std::vector<QueueLogRecord> logs;
    std::vector<SearchRecord> search;
    HistoryEntry history;
    std::vector<search::ScoredCandidate> scored;
    std::vector<std::size_t> front;
};

GoldenRecords
goldenRecords()
{
    GoldenRecords s;
    RunScale scale = quickScale();
    scale.timingCores = 2;
    scale.functionalMeasureInsts = 5'000'001;
    s.plain = {FrontendKind::Baseline, WorkloadId::DssQry, scale};

    s.sampled = {FrontendKind::Confluence, WorkloadId::OltpDb2, scale};
    s.sampled.sampling = {10'000, 2'000, 100'000, 3};

    s.overlaid = {FrontendKind::TwoLevelShift, WorkloadId::WebFrontend,
                  scale};
    s.overlaid.overlay = {1024, 4, 16384, 512, 3, 32, 32768, 6};

    s.both = s.sampled;
    s.both.overlay = s.overlaid.overlay;

    s.exact.point = s.plain;
    s.exact.seed = 0xdeadbeefcafe1234ull;
    CoreMetrics core{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
    s.exact.metrics.cores.push_back(core);
    core.retired = ~0ull;
    s.exact.metrics.cores.push_back(core);

    s.sampledOutcome.point = s.sampled;
    s.sampledOutcome.seed = 77;
    s.sampledOutcome.metrics.cores.push_back(core);
    SampleEstimates &est = s.sampledOutcome.metrics.sampling;
    est.cpi = {10, 1.25, 0.5};
    est.btbMpki = {10, 3.75, 0.125};
    est.l1iMpki = {10, -0.0, 1e-300};

    SweepOutcome zero_core; // a cache entry with no core counters
    zero_core.point = s.plain;
    zero_core.seed = 5;
    s.entry = {"0123456789abcdef", zero_core};

    s.task.id = "0123456789abcdef-r11223344-a2";
    s.task.seq = 42;
    s.task.command = "'/bin/x' --points '/spec dir/it'\\''s.jsonl' "
                     "--out 'o\"u\\t.jsonl'";
    s.task.result = "o\"u\\t.jsonl";

    s.lease = {s.task.id, "host:42", 1700000060000ull, 1700000000000ull};
    s.done = {s.task.id, "worker\"2", 137};

    s.emptyStatus.atMs = 1700000000000ull;

    QueueStatusRecord &st = s.fullStatus;
    st.atMs = 1700000000123ull;
    st.stop = true;
    st.pending = 5;
    st.claimed = 2;
    st.done = 100;
    st.cancelled = 3;
    st.quarantined = 1;
    st.leases = {{"cafe-r0-a0", "w\"1", 1500, 58500},
                 {"cafe-r0-a1", "w:2", 0, 0}};

    for (const char *op :
         {"enqueue", "cancel", "reclaim", "quarantine", "done"}) {
        QueueLogRecord log;
        log.op = op;
        log.task.id = s.task.id;
        if (log.op == "enqueue")
            log.task = s.task;
        if (log.op == "done")
            log.done = s.done;
        s.logs.push_back(log);
    }

    s.search = sampleSearchRecords();

    s.history.tag = "commit-a";
    s.history.geomeans = {{"confluence", 1.2175843611061371},
                          {"fdp", 0.1}};

    search::ScoredCandidate a;
    a.candidate.kind = FrontendKind::Confluence;
    a.score = 1.2175843611061371;
    a.cost = {10.2, 0.08};
    search::ScoredCandidate b;
    b.candidate.kind = FrontendKind::Fdp;
    b.candidate.overlay.btbEntries = 512;
    b.score = 1.0625;
    b.cost = {9.901, 0.0801};
    s.scored = {a, b};
    s.front = {1};
    return s;
}

struct GoldenLine
{
    std::string shape;
    std::string expected;  ///< the pinned bytes
    std::string encoded;   ///< the record, encoded now
    std::string reencoded; ///< the pinned bytes, decoded and re-encoded
    /** tryDecode() as the line's own record type. */
    bool (*parses)(const std::string &line);
};

template <typename T>
bool
parsesAs(const std::string &line)
{
    T record;
    return tryDecode(line, &record);
}

template <typename T>
GoldenLine
golden(std::string shape, const T &record, std::string expected)
{
    GoldenLine g{std::move(shape), std::move(expected), encode(record), "",
                 &parsesAs<T>};
    g.reencoded = encode(decode<T>(g.expected));
    return g;
}

/** paretoJson() writes the dump as a one-line file; the golden line is
 *  that line without its newline. */
GoldenLine
goldenPareto(const std::vector<search::ScoredCandidate> &scored,
             const std::vector<std::size_t> &front, std::string expected)
{
    const std::string file = search::paretoJson(scored, front);
    EXPECT_TRUE(file.ends_with('\n'));
    GoldenLine g{"pareto dump", std::move(expected),
                 file.substr(0, file.find('\n')), "",
                 &parsesAs<ParetoDump>};
    g.reencoded = encode(decode<ParetoDump>(g.expected));
    return g;
}

std::vector<GoldenLine>
goldenLines()
{
    const GoldenRecords r = goldenRecords();
    std::vector<GoldenLine> lines = {
        golden("point", r.plain,
             R"({"kind":"baseline","workload":"dss_qry",)"
             R"("scale":{"timing_warmup":800000,"timing_measure":400000,)"
             R"("timing_cores":2,"functional_warmup":3000000,)"
             R"("functional_measure":5000001}})"),
        golden("sampled point", r.sampled,
             R"({"kind":"confluence","workload":"oltp_db2",)"
             R"("scale":{"timing_warmup":800000,"timing_measure":400000,)"
             R"("timing_cores":2,"functional_warmup":3000000,)"
             R"("functional_measure":5000001},"sampling":{"interval":10000,)"
             R"("detailed_warmup":2000,"period":100000,"rng_stream":3}})"),
        golden("overlaid point", r.overlaid,
             R"({"kind":"two_level_shift","workload":"web_frontend",)"
             R"("scale":{"timing_warmup":800000,"timing_measure":400000,)"
             R"("timing_cores":2,"functional_warmup":3000000,)"
             R"("functional_measure":5000001},"overlay":{"btb_entries":1024,)"
             R"("btb_ways":4,"l2_entries":16384,"air_bundles":512,)"
             R"("air_branch_entries":3,"air_overflow_entries":32,)"
             R"("shift_history":32768,"shift_stream_depth":6}})"),
        golden("sampled overlaid point", r.both,
             R"({"kind":"confluence","workload":"oltp_db2",)"
             R"("scale":{"timing_warmup":800000,"timing_measure":400000,)"
             R"("timing_cores":2,"functional_warmup":3000000,)"
             R"("functional_measure":5000001},"sampling":{"interval":10000,)"
             R"("detailed_warmup":2000,"period":100000,"rng_stream":3},)"
             R"("overlay":{"btb_entries":1024,"btb_ways":4,)"
             R"("l2_entries":16384,"air_bundles":512,"air_branch_entries":3,)"
             R"("air_overflow_entries":32,"shift_history":32768,)"
             R"("shift_stream_depth":6}})"),
        golden("exact outcome", r.exact,
             R"({"point":{"kind":"baseline","workload":"dss_qry",)"
             R"("scale":{"timing_warmup":800000,"timing_measure":400000,)"
             R"("timing_cores":2,"functional_warmup":3000000,)"
             R"("functional_measure":5000001}},"seed":16045690984503054900,)"
             R"("metrics":{"cores":[{"retired":1,"cycles":2,)"
             R"("btb_taken_lookups":3,"btb_taken_misses":4,"misfetches":5,)"
             R"("cond_mispredicts":6,"l1i_demand_fetches":7,)"
             R"("l1i_demand_misses":8,"l1i_in_flight_hits":9,)"
             R"("btb_l2_stall_cycles":10,"fetch_miss_stall_cycles":11},)"
             R"({"retired":18446744073709551615,"cycles":2,)"
             R"("btb_taken_lookups":3,"btb_taken_misses":4,"misfetches":5,)"
             R"("cond_mispredicts":6,"l1i_demand_fetches":7,)"
             R"("l1i_demand_misses":8,"l1i_in_flight_hits":9,)"
             R"("btb_l2_stall_cycles":10,"fetch_miss_stall_cycles":11}]}})"),
        golden("sampled outcome", r.sampledOutcome,
             R"({"point":{"kind":"confluence","workload":"oltp_db2",)"
             R"("scale":{"timing_warmup":800000,"timing_measure":400000,)"
             R"("timing_cores":2,"functional_warmup":3000000,)"
             R"("functional_measure":5000001},"sampling":{"interval":10000,)"
             R"("detailed_warmup":2000,"period":100000,"rng_stream":3}},)"
             R"("seed":77,"metrics":{"cores":[{"retired":1844674407370955161)"
             R"(5,"cycles":2,"btb_taken_lookups":3,"btb_taken_misses":4,)"
             R"("misfetches":5,"cond_mispredicts":6,"l1i_demand_fetches":7,)"
             R"("l1i_demand_misses":8,"l1i_in_flight_hits":9,)"
             R"("btb_l2_stall_cycles":10,"fetch_miss_stall_cycles":11}],)"
             R"("sampling":{"cpi":{"n":10,"mean":4608308318706860032,)"
             R"("m2":4602678819172646912},"btb_mpki":{"n":10,)"
             R"("mean":4615626668101337088,"m2":4593671619917905920},)"
             R"("l1i_mpki":{"n":10,"mean":9223372036854775808,)"
             R"("m2":118622047889322841}}}})"),
        golden("cache entry", r.entry,
             R"({"key":"0123456789abcdef",)"
             R"("outcome":{"point":{"kind":"baseline","workload":"dss_qry",)"
             R"("scale":{"timing_warmup":800000,"timing_measure":400000,)"
             R"("timing_cores":2,"functional_warmup":3000000,)"
             R"("functional_measure":5000001}},"seed":5,)"
             R"("metrics":{"cores":[]}}})"),
        golden("task", r.task,
             R"({"id":"0123456789abcdef-r11223344-a2","seq":42,)"
             R"("command":"'/bin/x' --points '/spec dir/it'\\''s.jsonl' --ou)"
             R"(t 'o\"u\\t.jsonl'","result":"o\"u\\t.jsonl"})"),
        golden("lease", r.lease,
             R"({"id":"0123456789abcdef-r11223344-a2","owner":"host:42",)"
             R"("deadline_ms":1700000060000,"since_ms":1700000000000})"),
        golden("done", r.done,
             R"({"id":"0123456789abcdef-r11223344-a2","owner":"worker\"2",)"
             R"("exit":137})"),
        golden("empty status", r.emptyStatus,
             R"({"at_ms":1700000000000,"stop":0,"pending":0,"claimed":0,)"
             R"("done":0,"cancelled":0,"quarantined":0,"leases":[]})"),
        golden("status", r.fullStatus,
             R"({"at_ms":1700000000123,"stop":1,"pending":5,"claimed":2,)"
             R"("done":100,"cancelled":3,"quarantined":1,)"
             R"("leases":[{"id":"cafe-r0-a0","owner":"w\"1",)"
             R"("hb_age_ms":1500,"remaining_ms":58500},)"
             R"({"id":"cafe-r0-a1","owner":"w:2","hb_age_ms":0,)"
             R"("remaining_ms":0}]})"),
        golden("log enqueue", r.logs[0],
             R"({"op":"enqueue","task":{"id":"0123456789abcdef-r11223344-a2")"
             R"(,"seq":42,"command":"'/bin/x' --points '/spec dir/it'\\''s.j)"
             R"(sonl' --out 'o\"u\\t.jsonl'","result":"o\"u\\t.jsonl"}})"),
        golden("log cancel", r.logs[1],
             R"({"op":"cancel","id":"0123456789abcdef-r11223344-a2"})"),
        golden("log reclaim", r.logs[2],
             R"({"op":"reclaim","id":"0123456789abcdef-r11223344-a2"})"),
        golden("log quarantine", r.logs[3],
             R"({"op":"quarantine","id":"0123456789abcdef-r11223344-a2"})"),
        golden("log done", r.logs[4],
             R"({"op":"done","done":{"id":"0123456789abcdef-r11223344-a2",)"
             R"("owner":"worker\"2","exit":137}})"),
        golden("search header", r.search[0],
             R"({"type":"header","strategy":"halving","seed":7,)"
             R"("space":"kinds=fdp,confluence;btb_entries=512,1024",)"
             R"("scale":"quick","budget":40,"code_version":"v\"1\\a"})"),
        golden("search round", r.search[1],
             R"({"type":"round","round":3})"),
        golden("search eval", r.search[2],
             R"({"type":"eval","round":3,"candidate":"fdp+btb_entries=512",)"
             R"("key":"ffffffffffffffff"})"),
        golden("search decision", r.search[3],
             R"({"type":"decision","round":3,)"
             R"("candidate":"fdp+btb_entries=512","action":"keep",)"
             R"("score_bits":4607463893776728064,)"
             R"("cost_kb_bits":4621763385543582810,)"
             R"("cost_mm2_bits":4590436233945602956})"),
        golden("search done", r.search[4],
             R"({"type":"done","rounds":5,"candidate":"confluence",)"
             R"("score_bits":4608162331647616654,)"
             R"("cost_kb_bits":4621931707579655782,)"
             R"("cost_mm2_bits":4590429028186199163})"),
        golden("history", r.history,
             R"({"tag":"commit-a","entries":[{"kind":"confluence",)"
             R"("geomean_bits":4608162331647616654,)"
             R"("geomean":"1.217584361106137"},{"kind":"fdp",)"
             R"("geomean_bits":4591870180066957722,)"
             R"("geomean":"0.10000000000000001"}]})"),
    };
    lines.push_back(goldenPareto(
        r.scored, r.front,
             R"({"candidates":[{"candidate":"confluence",)"
             R"("kind":"confluence","storage_kb_bits":4621931707579655782,)"
             R"("area_mm2_bits":4590429028186199163,)"
             R"("score_bits":4608162331647616654,"on_front":false},)"
             R"({"candidate":"fdp+btb_entries=512","kind":"fdp",)"
             R"("storage_kb_bits":4621763385543582810,)"
             R"("area_mm2_bits":4590436233945602956,)"
             R"("score_bits":4607463893776728064,"on_front":true}]})"));
    return lines;
}

} // namespace

TEST(SweepioGolden, EveryRecordShapeEncodesToItsPinnedBytes)
{
    for (const GoldenLine &line : goldenLines()) {
        EXPECT_EQ(line.encoded, line.expected) << line.shape;
        EXPECT_EQ(line.reencoded, line.expected) << line.shape;
    }
}

// ---------------------------------------------------------------------------
// Fuzz-style truncation sweep: every strict prefix of every golden line
// must be rejected gracefully by every record type: never crash, never
// parse.
// ---------------------------------------------------------------------------

namespace
{

/** Every top-level record type, one per store line format. */
template <typename... Ts>
struct RecordTypes
{
    template <typename Fn>
    static void forEach(Fn &&fn)
    {
        (fn(std::type_identity<Ts>{}), ...);
    }
};

using StoreRecordTypes =
    RecordTypes<SweepPoint, SweepOutcome, CacheEntry, TaskRecord,
                LeaseRecord, DoneRecord, QueueStatusRecord,
                QueueLogRecord, SearchRecord, HistoryEntry, ParetoDump>;

} // namespace

TEST(SweepioFuzz, EveryTruncationOffsetIsRejectedWithoutCrashing)
{
    for (const GoldenLine &line : goldenLines()) {
        // The untruncated line parses, in throw mode, as its own type.
        EXPECT_TRUE(line.parses(line.expected)) << line.shape;
        for (std::size_t cut = 0; cut < line.expected.size(); ++cut) {
            const std::string torn = line.expected.substr(0, cut);
            // Throw-mode parsing of a strict prefix must fail cleanly:
            // no crash, no accidental acceptance (every line ends with
            // structure a prefix cannot close).
            StoreRecordTypes::forEach([&]<typename T>(std::type_identity<T>) {
                T record;
                EXPECT_FALSE(tryDecode(torn, &record))
                    << Schema<T>::context << " record accepted " << line.shape
                    << " torn at offset " << cut;
            });
        }
    }
}

TEST(SweepioFuzz, StoreLoadersSkipTruncatedLinesWithAWarning)
{
    // Non-throw-mode degradation: a store file holding a good line
    // plus a truncation of another line must load the good entry and
    // skip the torn one — at *every* truncation offset.
    SweepOutcome outcome;
    outcome.point = {FrontendKind::Baseline, WorkloadId::WebFrontend,
                     quickScale()};
    outcome.seed = 99;
    CoreMetrics core;
    core.retired = 10;
    core.cycles = 20;
    outcome.metrics.cores.push_back(core);
    const std::string good = encode(
        CacheEntry{pointDigest(outcome.point, outcome.seed, "v1"), outcome});

    const std::string store = tmpPath("fuzz_store.jsonl");
    for (std::size_t cut = 0; cut < good.size(); ++cut) {
        {
            std::ofstream out(store, std::ios::trunc);
            out << good << '\n' << good.substr(0, cut);
        }
        cfl::dispatch::ResultCache cache(store, "v1");
        EXPECT_EQ(cache.size(), 1u) << "offset " << cut;
    }
    std::remove(store.c_str());

    // Same for the regression history.
    const std::string hist_line =
        "{\"tag\":\"commit-a\",\"entries\":[{\"kind\":\"confluence\","
        "\"geomean_bits\":4607863817060079104,"
        "\"geomean\":\"1.2175843611061371\"}]}";
    const std::string hist = tmpPath("fuzz_history.jsonl");
    for (std::size_t cut = 0; cut < hist_line.size(); ++cut) {
        {
            std::ofstream out(hist, std::ios::trunc);
            out << hist_line << '\n' << hist_line.substr(0, cut);
        }
        cfl::dispatch::RegressionHistory history(hist);
        EXPECT_EQ(history.entries().size(), 1u) << "offset " << cut;
    }
    std::remove(hist.c_str());
}

// ---------------------------------------------------------------------------
// Shard partitioning
// ---------------------------------------------------------------------------

TEST(SweepioShard, ParseShardSpec)
{
    const ShardSpec s = parseShardSpec("2/5");
    EXPECT_EQ(s.index, 2u);
    EXPECT_EQ(s.count, 5u);

    const ShardSpec first = parseShardSpec("0/1");
    EXPECT_EQ(first.index, 0u);
    EXPECT_EQ(first.count, 1u);

    // Largest representable spec: both fields fit in unsigned.
    const ShardSpec wide = parseShardSpec("4294967294/4294967295");
    EXPECT_EQ(wide.index, 4294967294u);
    EXPECT_EQ(wide.count, 4294967295u);
}

TEST(SweepioShard, ParseShardSpecRejectsMalformedSpecs)
{
    // Every rejected spec must exit 1 (the documented contract — shard
    // launchers key on the exit code) with a message matching the
    // expected diagnostic.
    struct BadSpec
    {
        const char *spec;
        const char *message;
    };
    const BadSpec table[] = {
        {"nonsense", "shard spec"},      // no slash
        {"", "shard spec"},              // empty
        {"1/", "shard spec"},            // missing count
        {"/2", "shard spec"},            // missing index
        {"/", "shard spec"},             // both missing
        {"1/0", "at least 1"},           // zero shards
        {"0/0", "at least 1"},           // zero shards, index 0
        {"5/5", "out of range"},         // index == count
        {"7/5", "out of range"},         // index > count
        {"-1/5", "shard spec"},          // negative index
        {"1/-5", "shard spec"},          // negative count
        {"+1/5", "shard spec"},          // sign prefix (strtol allows)
        {" 1/5", "shard spec"},          // whitespace (strtol allows)
        {"1 /5", "shard spec"},          // embedded whitespace
        {"0x1/5", "shard spec"},         // base prefix
        {"1.5/5", "shard spec"},         // non-integer
        {"1/5/2", "shard spec"},         // trailing garbage
        {"4294967296/4294967297", "shard spec"},  // > unsigned range
        {"1/99999999999999999999", "shard spec"}, // count overflow
        {"99999999999999999999/7", "shard spec"}, // index overflow
    };
    for (const BadSpec &bad : table) {
        EXPECT_EXIT(parseShardSpec(bad.spec),
                    ::testing::ExitedWithCode(1), bad.message)
            << "spec \"" << bad.spec << "\"";
    }
}

TEST(SweepioShard, PartitionIsAnOrderedDisjointCover)
{
    // Build m distinguishable points: workload cycles through the suite
    // and the scale's warmup field carries the original index.
    for (std::size_t m = 0; m <= 9; ++m) {
        std::vector<SweepPoint> points;
        for (std::size_t i = 0; i < m; ++i) {
            SweepPoint p{FrontendKind::Baseline,
                         allWorkloads()[i % allWorkloads().size()],
                         quickScale()};
            p.scale.timingWarmupInsts = i;
            points.push_back(p);
        }

        for (unsigned n = 1; n <= 4; ++n) {
            std::vector<SweepPoint> reunion;
            std::size_t min_size = m, max_size = 0;
            for (unsigned shard = 0; shard < n; ++shard) {
                const auto part = shardPoints(points, shard, n);
                min_size = std::min(min_size, part.size());
                max_size = std::max(max_size, part.size());
                reunion.insert(reunion.end(), part.begin(), part.end());
            }
            // Concatenating the shards in order reproduces the spec
            // exactly: same points, same submission order.
            ASSERT_EQ(reunion.size(), m);
            for (std::size_t i = 0; i < m; ++i)
                EXPECT_EQ(reunion[i].scale.timingWarmupInsts, i);
            // Balanced: shard sizes differ by at most one.
            if (m > 0) {
                EXPECT_LE(max_size - min_size, 1u);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The headline invariant: shards through files == whole sweep in memory
// ---------------------------------------------------------------------------

TEST(SweepioShard, TwoShardFileMergeMatchesWholeSweep)
{
    const SystemConfig config = makeSystemConfig(1);
    const std::vector<SweepPoint> points = goldenPoints();

    // Unsharded reference, all points in one in-process sweep.
    SweepEngine whole_engine(2);
    const SweepResult whole =
        runTimingSweep(points, config, whole_engine);

    // Each shard runs on its own engine — separate processes in the
    // real workflow — and round-trips its result through a file.
    SweepResult merged;
    for (unsigned shard = 0; shard < 2; ++shard) {
        SweepEngine engine(2);
        const SweepResult part = runTimingSweep(
            shardPoints(points, shard, 2), config, engine);
        const std::string path =
            tmpPath("shard" + std::to_string(shard) + ".jsonl");
        writeResult(path, part);
        merged.merge(readResult(path));
        std::remove(path.c_str());
    }

    // Per-point metrics (and their order) are bit-identical.
    expectIdentical(whole, merged);

    // And the merged result reproduces the golden quick-scale geomean
    // pinned in test_calibration.cc.
    EXPECT_NEAR(merged.geomeanSpeedup(FrontendKind::Confluence,
                                      FrontendKind::Baseline),
                1.217584361106137, 1e-9);
}
