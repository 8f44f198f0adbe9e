#include "sweepio/queue_codec.hh"

#include <stdexcept>

#include "sweepio/json.hh"

namespace cfl::sweepio
{

namespace
{

class Parser : public MiniJsonParser
{
  public:
    explicit Parser(const std::string &text, bool throw_on_error = false)
        : MiniJsonParser(text, "queue record", throw_on_error)
    {
    }
};

// Parse the body of a record whose opening '{' has been consumed; the
// caller handles the surrounding context (standalone line vs embedded
// in a log record).

TaskRecord
parseTaskBody(Parser &p)
{
    TaskRecord task;
    task.id = p.namedString("id");
    p.expect(',');
    task.seq = p.namedNumber("seq");
    p.expect(',');
    task.command = p.namedString("command");
    p.expect(',');
    task.result = p.namedString("result");
    p.expect(',');
    task.tenant = p.namedString("tenant");
    p.expect(',');
    task.priority = p.namedSignedNumber("priority");
    p.expect('}');
    return task;
}

DoneRecord
parseDoneBody(Parser &p)
{
    DoneRecord done;
    done.id = p.namedString("id");
    p.expect(',');
    done.owner = p.namedString("owner");
    p.expect(',');
    done.exitCode = p.namedNumber("exit");
    p.expect(',');
    done.tenant = p.namedString("tenant");
    p.expect('}');
    return done;
}

void
appendTaskBody(std::string &line, const TaskRecord &task)
{
    line += "{\"id\":\"";
    line += escapeJsonString(task.id);
    line += "\",\"seq\":";
    line += std::to_string(task.seq);
    line += ",\"command\":\"";
    line += escapeJsonString(task.command);
    line += "\",\"result\":\"";
    line += escapeJsonString(task.result);
    line += "\",\"tenant\":\"";
    line += escapeJsonString(task.tenant);
    line += "\",\"priority\":";
    line += std::to_string(task.priority);
    line += "}";
}

void
appendDoneBody(std::string &line, const DoneRecord &done)
{
    line += "{\"id\":\"";
    line += escapeJsonString(done.id);
    line += "\",\"owner\":\"";
    line += escapeJsonString(done.owner);
    line += "\",\"exit\":";
    line += std::to_string(done.exitCode);
    line += ",\"tenant\":\"";
    line += escapeJsonString(done.tenant);
    line += "\"}";
}

/** Run @p parse over @p line, reporting malformed input as false. */
template <typename Record, typename Parse>
bool
tryDecode(const std::string &line, Record *out, Parse &&parse)
{
    Parser p(line, /*throw_on_error=*/true);
    try {
        *out = parse(p);
        return true;
    } catch (const std::runtime_error &) {
        return false;
    }
}

} // namespace

std::string
encodeTask(const TaskRecord &task)
{
    std::string line;
    appendTaskBody(line, task);
    return line;
}

TaskRecord
decodeTask(const std::string &line)
{
    Parser p(line);
    p.expect('{');
    const TaskRecord task = parseTaskBody(p);
    p.end();
    return task;
}

bool
tryDecodeTask(const std::string &line, TaskRecord *out)
{
    return tryDecode(line, out, [](Parser &p) {
        p.expect('{');
        const TaskRecord task = parseTaskBody(p);
        p.end();
        return task;
    });
}

namespace
{

LeaseRecord
parseLease(Parser &p)
{
    LeaseRecord lease;
    p.expect('{');
    lease.id = p.namedString("id");
    p.expect(',');
    lease.owner = p.namedString("owner");
    p.expect(',');
    lease.deadlineMs = p.namedNumber("deadline_ms");
    p.expect(',');
    lease.sinceMs = p.namedNumber("since_ms");
    p.expect('}');
    p.end();
    return lease;
}

} // namespace

std::string
encodeLease(const LeaseRecord &lease)
{
    std::string line = "{\"id\":\"";
    line += escapeJsonString(lease.id);
    line += "\",\"owner\":\"";
    line += escapeJsonString(lease.owner);
    line += "\",\"deadline_ms\":";
    line += std::to_string(lease.deadlineMs);
    line += ",\"since_ms\":";
    line += std::to_string(lease.sinceMs);
    line += "}";
    return line;
}

LeaseRecord
decodeLease(const std::string &line)
{
    Parser p(line);
    return parseLease(p);
}

bool
tryDecodeLease(const std::string &line, LeaseRecord *out)
{
    return tryDecode(line, out,
                     [](Parser &p) { return parseLease(p); });
}

std::string
encodeDone(const DoneRecord &done)
{
    std::string line;
    appendDoneBody(line, done);
    return line;
}

DoneRecord
decodeDone(const std::string &line)
{
    Parser p(line);
    p.expect('{');
    const DoneRecord done = parseDoneBody(p);
    p.end();
    return done;
}

bool
tryDecodeDone(const std::string &line, DoneRecord *out)
{
    return tryDecode(line, out, [](Parser &p) {
        p.expect('{');
        const DoneRecord done = parseDoneBody(p);
        p.end();
        return done;
    });
}

namespace
{

TenantRecord
parseTenant(Parser &p)
{
    TenantRecord tenant;
    p.expect('{');
    tenant.tenant = p.namedString("tenant");
    p.expect(',');
    tenant.weight = p.namedNumber("weight");
    p.expect(',');
    tenant.quota = p.namedNumber("quota");
    p.expect('}');
    p.end();
    return tenant;
}

QueueCacheStats
parseCacheStatsBody(Parser &p)
{
    QueueCacheStats stats;
    stats.hits = p.namedNumber("hits");
    p.expect(',');
    stats.misses = p.namedNumber("misses");
    p.expect(',');
    stats.atMs = p.namedNumber("at_ms");
    p.expect('}');
    return stats;
}

void
appendCacheStatsBody(std::string &line, const QueueCacheStats &stats)
{
    line += "{\"hits\":";
    line += std::to_string(stats.hits);
    line += ",\"misses\":";
    line += std::to_string(stats.misses);
    line += ",\"at_ms\":";
    line += std::to_string(stats.atMs);
    line += "}";
}

QueueStatusRecord
parseQueueStatus(Parser &p)
{
    QueueStatusRecord st;
    p.expect('{');
    st.queue = p.namedString("queue");
    p.expect(',');
    st.atMs = p.namedNumber("at_ms");
    p.expect(',');
    st.stop = p.namedNumber("stop") != 0;
    p.expect(',');
    st.pending = p.namedNumber("pending");
    p.expect(',');
    st.claimed = p.namedNumber("claimed");
    p.expect(',');
    st.done = p.namedNumber("done");
    p.expect(',');
    st.cancelled = p.namedNumber("cancelled");
    p.expect(',');
    st.quarantined = p.namedNumber("quarantined");
    p.expect(',');
    p.namedKey("depths");
    p.expect('[');
    if (!p.accept(']')) {
        do {
            QueueTenantDepth depth;
            p.expect('{');
            depth.tenant = p.namedString("tenant");
            p.expect(',');
            depth.priority = p.namedSignedNumber("priority");
            p.expect(',');
            depth.pending = p.namedNumber("pending");
            p.expect('}');
            st.depths.push_back(std::move(depth));
        } while (p.accept(','));
        p.expect(']');
    }
    p.expect(',');
    p.namedKey("leases");
    p.expect('[');
    if (!p.accept(']')) {
        do {
            QueueLeaseStatus lease;
            p.expect('{');
            lease.id = p.namedString("id");
            p.expect(',');
            lease.owner = p.namedString("owner");
            p.expect(',');
            lease.tenant = p.namedString("tenant");
            p.expect(',');
            lease.heartbeatAgeMs = p.namedNumber("hb_age_ms");
            p.expect(',');
            lease.remainingMs = p.namedNumber("remaining_ms");
            p.expect('}');
            st.leases.push_back(std::move(lease));
        } while (p.accept(','));
        p.expect(']');
    }
    p.expect(',');
    p.namedKey("cache");
    p.expect('{');
    st.cache = parseCacheStatsBody(p);
    p.expect('}');
    p.end();
    return st;
}

} // namespace

std::string
encodeTenant(const TenantRecord &tenant)
{
    std::string line = "{\"tenant\":\"";
    line += escapeJsonString(tenant.tenant);
    line += "\",\"weight\":";
    line += std::to_string(tenant.weight);
    line += ",\"quota\":";
    line += std::to_string(tenant.quota);
    line += "}";
    return line;
}

TenantRecord
decodeTenant(const std::string &line)
{
    Parser p(line);
    return parseTenant(p);
}

bool
tryDecodeTenant(const std::string &line, TenantRecord *out)
{
    return tryDecode(line, out,
                     [](Parser &p) { return parseTenant(p); });
}

std::string
encodeQueueCacheStats(const QueueCacheStats &stats)
{
    std::string line;
    appendCacheStatsBody(line, stats);
    return line;
}

QueueCacheStats
decodeQueueCacheStats(const std::string &line)
{
    Parser p(line);
    p.expect('{');
    const QueueCacheStats stats = parseCacheStatsBody(p);
    p.end();
    return stats;
}

bool
tryDecodeQueueCacheStats(const std::string &line, QueueCacheStats *out)
{
    return tryDecode(line, out, [](Parser &p) {
        p.expect('{');
        const QueueCacheStats stats = parseCacheStatsBody(p);
        p.end();
        return stats;
    });
}

std::string
encodeQueueStatus(const QueueStatusRecord &status)
{
    std::string line = "{\"queue\":\"";
    line += escapeJsonString(status.queue);
    line += "\",\"at_ms\":";
    line += std::to_string(status.atMs);
    line += ",\"stop\":";
    line += status.stop ? "1" : "0";
    line += ",\"pending\":";
    line += std::to_string(status.pending);
    line += ",\"claimed\":";
    line += std::to_string(status.claimed);
    line += ",\"done\":";
    line += std::to_string(status.done);
    line += ",\"cancelled\":";
    line += std::to_string(status.cancelled);
    line += ",\"quarantined\":";
    line += std::to_string(status.quarantined);
    line += ",\"depths\":[";
    bool first = true;
    for (const QueueTenantDepth &depth : status.depths) {
        if (!first)
            line += ",";
        first = false;
        line += "{\"tenant\":\"";
        line += escapeJsonString(depth.tenant);
        line += "\",\"priority\":";
        line += std::to_string(depth.priority);
        line += ",\"pending\":";
        line += std::to_string(depth.pending);
        line += "}";
    }
    line += "],\"leases\":[";
    first = true;
    for (const QueueLeaseStatus &lease : status.leases) {
        if (!first)
            line += ",";
        first = false;
        line += "{\"id\":\"";
        line += escapeJsonString(lease.id);
        line += "\",\"owner\":\"";
        line += escapeJsonString(lease.owner);
        line += "\",\"tenant\":\"";
        line += escapeJsonString(lease.tenant);
        line += "\",\"hb_age_ms\":";
        line += std::to_string(lease.heartbeatAgeMs);
        line += ",\"remaining_ms\":";
        line += std::to_string(lease.remainingMs);
        line += "}";
    }
    line += "],\"cache\":";
    appendCacheStatsBody(line, status.cache);
    line += "}";
    return line;
}

QueueStatusRecord
decodeQueueStatus(const std::string &line)
{
    Parser p(line);
    return parseQueueStatus(p);
}

bool
tryDecodeQueueStatus(const std::string &line, QueueStatusRecord *out)
{
    return tryDecode(line, out,
                     [](Parser &p) { return parseQueueStatus(p); });
}

namespace
{

QueueLogRecord
parseQueueLog(Parser &p)
{
    QueueLogRecord record;
    p.expect('{');
    record.op = p.namedString("op");
    p.expect(',');
    if (record.op == "enqueue") {
        p.namedKey("task");
        p.expect('{');
        record.task = parseTaskBody(p);
    } else if (record.op == "done") {
        p.namedKey("done");
        p.expect('{');
        record.done = parseDoneBody(p);
        record.task.id = record.done.id;
    } else if (record.op == "cancel" || record.op == "reclaim" ||
               record.op == "quarantine") {
        record.task.id = p.namedString("id");
    } else {
        p.error("unknown queue log op \"" + record.op + "\"");
    }
    p.expect('}');
    p.end();
    return record;
}

} // namespace

std::string
encodeQueueLog(const QueueLogRecord &record)
{
    std::string line = "{\"op\":\"";
    line += escapeJsonString(record.op);
    line += "\",";
    if (record.op == "enqueue") {
        line += "\"task\":";
        appendTaskBody(line, record.task);
    } else if (record.op == "done") {
        line += "\"done\":";
        appendDoneBody(line, record.done);
    } else {
        line += "\"id\":\"";
        line += escapeJsonString(record.task.id);
        line += "\"";
    }
    line += "}";
    return line;
}

QueueLogRecord
decodeQueueLog(const std::string &line)
{
    Parser p(line);
    return parseQueueLog(p);
}

bool
tryDecodeQueueLog(const std::string &line, QueueLogRecord *out)
{
    return tryDecode(line, out,
                     [](Parser &p) { return parseQueueLog(p); });
}

} // namespace cfl::sweepio
