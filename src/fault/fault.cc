#include "fault/fault.hh"

#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fcntl.h>
#include <mutex>
#include <signal.h>
#include <unistd.h>
#include <unordered_map>

#include "common/logging.hh"
#include "common/rng.hh"
#include "sweepio/digest.hh"

namespace cfl::fault
{

namespace
{

struct KindName
{
    Kind kind;
    const char *slug;
};

constexpr KindName kKindNames[] = {
    {Kind::None, "none"},
    {Kind::ShortWrite, "short-write"},
    {Kind::Enospc, "enospc"},
    {Kind::Eio, "eio"},
    {Kind::RenameFail, "rename-fail"},
    {Kind::Die, "die"},
    {Kind::Kill, "kill"},
    {Kind::ClockSkew, "clock-skew"},
};

bool
parseU64(std::string_view text, std::uint64_t *out)
{
    if (text.empty())
        return false;
    std::uint64_t v = 0;
    for (char c : text) {
        if (c < '0' || c > '9')
            return false;
        v = v * 10 + std::uint64_t(c - '0');
    }
    *out = v;
    return true;
}

bool
parseI64(std::string_view text, std::int64_t *out)
{
    bool neg = !text.empty() && text[0] == '-';
    std::uint64_t mag = 0;
    if (!parseU64(neg ? text.substr(1) : text, &mag))
        return false;
    *out = neg ? -std::int64_t(mag) : std::int64_t(mag);
    return true;
}

std::vector<std::string_view>
splitOn(std::string_view text, char sep)
{
    std::vector<std::string_view> parts;
    while (true) {
        std::size_t pos = text.find(sep);
        parts.push_back(text.substr(0, pos));
        if (pos == std::string_view::npos)
            return parts;
        text = text.substr(pos + 1);
    }
}

/**
 * The process-global injector: the installed plan plus the mutable
 * state a replay depends on (per-site hit counters, the sticky clock
 * skew, the fault-log fd). All guarded by one mutex; the fast path
 * when nothing is installed is a single relaxed atomic load in
 * active().
 */
struct Injector
{
    std::mutex mutex;
    bool envChecked = false;
    bool hasPlan = false;
    FaultPlan plan;
    std::unordered_map<std::string, std::uint64_t> hits;
    bool skewDecided = false;
    std::int64_t skewMs = 0;
    int logFd = -1;

    void
    resetLocked()
    {
        hits.clear();
        skewDecided = false;
        skewMs = 0;
        if (logFd >= 0)
            ::close(logFd);
        logFd = -1;
    }

    void
    logFiredLocked(const char *site, std::uint64_t hit,
                   const Decision &d)
    {
        if (plan.logPath.empty())
            return;
        if (logFd < 0) {
            logFd = ::open(plan.logPath.c_str(),
                           O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
                           0644);
            if (logFd < 0)
                return;
        }
        char line[256];
        int n = std::snprintf(line, sizeof(line),
                              "fault site=%s hit=%" PRIu64
                              " kind=%s arg=%" PRId64 "\n",
                              site, hit, kindSlug(d.kind), d.arg);
        if (n > 0)
            (void)!::write(logFd, line, std::size_t(n));
    }
};

Injector &
injector()
{
    static Injector g;
    return g;
}

std::atomic<bool> g_active{false};

/** Load CONFLUENCE_FAULT_PLAN into @p inj if it has not been checked
 *  yet. */
void
ensureEnvLoadedLocked(Injector &inj)
{
    if (inj.envChecked)
        return;
    inj.envChecked = true;
    const char *spec = std::getenv("CONFLUENCE_FAULT_PLAN");
    if (spec && *spec) {
        std::string error;
        if (!FaultPlan::parse(spec, &inj.plan, &error))
            cfl_fatal("bad CONFLUENCE_FAULT_PLAN: %s", error.c_str());
        inj.hasPlan = true;
        g_active.store(true, std::memory_order_relaxed);
    }
}

/** Decide one hit of @p site, log it if fired, and carry out death
 *  kinds. Returns the (non-death) decision to simulate. */
Decision
hitSite(const char *site)
{
    Injector &inj = injector();
    Decision d;
    std::uint64_t hit = 0;
    {
        std::scoped_lock lock(inj.mutex);
        ensureEnvLoadedLocked(inj);
        if (!inj.hasPlan)
            return d;
        hit = inj.hits[site]++;
        d = inj.plan.decide(site, hit);
        if (d.kind == Kind::None)
            return d;
        inj.logFiredLocked(site, hit, d);
    }
    cfl_warn("fault injected at %s hit %" PRIu64 ": %s (arg %" PRId64
             ")", site, hit, kindSlug(d.kind), d.arg);
    if (d.kind == Kind::Die)
        std::_Exit(int(d.arg));
    if (d.kind == Kind::Kill) {
        ::kill(::getpid(), SIGKILL);
        // SIGKILL is not deliverable to a stopped-then-killed race
        // loser; don't fall through into normal operation.
        std::_Exit(137);
    }
    return d;
}

} // namespace

const char *
kindSlug(Kind kind)
{
    for (const KindName &k : kKindNames) {
        if (k.kind == kind)
            return k.slug;
    }
    return "unknown";
}

std::optional<Kind>
kindFromSlug(std::string_view slug)
{
    for (const KindName &k : kKindNames) {
        if (slug == k.slug)
            return k.kind;
    }
    return std::nullopt;
}

bool
FaultPlan::parse(const std::string &spec, FaultPlan *out,
                 std::string *error)
{
    FaultPlan plan;
    for (std::string_view field : splitOn(spec, ';')) {
        if (field.empty())
            continue;
        std::size_t eq = field.find('=');
        if (eq == std::string_view::npos) {
            *error = "field '" + std::string(field) +
                     "' has no '='";
            return false;
        }
        std::string_view key = field.substr(0, eq);
        std::string_view value = field.substr(eq + 1);
        if (key == "seed") {
            if (!parseU64(value, &plan.seed)) {
                *error = "bad seed '" + std::string(value) + "'";
                return false;
            }
        } else if (key == "rate") {
            char *end = nullptr;
            std::string text(value);
            plan.rate = std::strtod(text.c_str(), &end);
            if (!end || *end != '\0' || plan.rate < 0.0 ||
                plan.rate > 1.0) {
                *error = "bad rate '" + text + "' (want [0,1])";
                return false;
            }
        } else if (key == "kinds") {
            for (std::string_view slug : splitOn(value, ',')) {
                std::optional<Kind> k = kindFromSlug(slug);
                if (!k || *k == Kind::None) {
                    *error = "unknown fault kind '" +
                             std::string(slug) + "'";
                    return false;
                }
                plan.kinds.push_back(*k);
            }
        } else if (key == "sites") {
            for (std::string_view prefix : splitOn(value, ',')) {
                if (prefix.empty()) {
                    *error = "empty site prefix in sites=";
                    return false;
                }
                plan.sitePrefixes.emplace_back(prefix);
            }
        } else if (key == "pin") {
            // SITE@HIT:KIND[:ARG]
            std::size_t at = value.find('@');
            if (at == std::string_view::npos || at == 0) {
                *error = "pin '" + std::string(value) +
                         "' wants SITE@HIT:KIND[:ARG]";
                return false;
            }
            FaultPin pin;
            pin.site = std::string(value.substr(0, at));
            std::string_view rest = value.substr(at + 1);
            std::size_t colon = rest.find(':');
            if (colon == std::string_view::npos ||
                !parseU64(rest.substr(0, colon), &pin.hit)) {
                *error = "pin '" + std::string(value) +
                         "' has a bad hit ordinal";
                return false;
            }
            rest = rest.substr(colon + 1);
            std::size_t argColon = rest.find(':');
            std::string_view slug = rest.substr(0, argColon);
            std::optional<Kind> k = kindFromSlug(slug);
            if (!k || *k == Kind::None) {
                *error = "pin '" + std::string(value) +
                         "' has unknown kind '" + std::string(slug) +
                         "'";
                return false;
            }
            pin.kind = *k;
            if (argColon != std::string_view::npos) {
                if (!parseI64(rest.substr(argColon + 1), &pin.arg)) {
                    *error = "pin '" + std::string(value) +
                             "' has a bad arg";
                    return false;
                }
                pin.hasArg = true;
            }
            plan.pins.push_back(std::move(pin));
        } else if (key == "log") {
            plan.logPath = std::string(value);
        } else if (key == "die-exit") {
            std::int64_t v = 0;
            if (!parseI64(value, &v) || v < 0 || v > 255) {
                *error = "bad die-exit '" + std::string(value) + "'";
                return false;
            }
            plan.dieExit = int(v);
        } else if (key == "skew-cap-ms") {
            std::int64_t v = 0;
            if (!parseI64(value, &v) || v < 0) {
                *error = "bad skew-cap-ms '" + std::string(value) +
                         "'";
                return false;
            }
            plan.skewCapMs = v;
        } else {
            *error = "unknown plan key '" + std::string(key) + "'";
            return false;
        }
    }
    *out = std::move(plan);
    return true;
}

std::string
FaultPlan::encode() const
{
    std::string spec;
    auto field = [&spec](const std::string &text) {
        if (!spec.empty())
            spec += ';';
        spec += text;
    };
    if (seed != 0)
        field("seed=" + std::to_string(seed));
    if (rate != 0.0) {
        char buf[48];
        std::snprintf(buf, sizeof(buf), "rate=%.17g", rate);
        field(buf);
    }
    if (!kinds.empty()) {
        std::string list;
        for (Kind k : kinds) {
            if (!list.empty())
                list += ',';
            list += kindSlug(k);
        }
        field("kinds=" + list);
    }
    if (!sitePrefixes.empty()) {
        std::string list;
        for (const std::string &p : sitePrefixes) {
            if (!list.empty())
                list += ',';
            list += p;
        }
        field("sites=" + list);
    }
    for (const FaultPin &pin : pins) {
        std::string text = "pin=" + pin.site + "@" +
                           std::to_string(pin.hit) + ":" +
                           kindSlug(pin.kind);
        if (pin.hasArg)
            text += ":" + std::to_string(pin.arg);
        field(text);
    }
    if (!logPath.empty())
        field("log=" + logPath);
    if (dieExit != 4)
        field("die-exit=" + std::to_string(dieExit));
    if (skewCapMs != 30000)
        field("skew-cap-ms=" + std::to_string(skewCapMs));
    return spec;
}

Decision
FaultPlan::decide(std::string_view site, std::uint64_t hit) const
{
    for (const FaultPin &pin : pins) {
        if (pin.hit != hit || pin.site != site)
            continue;
        Decision d{pin.kind, pin.arg};
        if (!pin.hasArg) {
            if (pin.kind == Kind::Die)
                d.arg = dieExit;
            else if (pin.kind == Kind::ClockSkew)
                d.arg = skewCapMs;
        }
        return d;
    }
    if (rate <= 0.0 || kinds.empty())
        return {};
    if (!sitePrefixes.empty()) {
        bool matched = false;
        for (const std::string &prefix : sitePrefixes) {
            if (site.substr(0, prefix.size()) == prefix) {
                matched = true;
                break;
            }
        }
        if (!matched)
            return {};
    }
    std::uint64_t h = hashCombine(
        seed, hashCombine(sweepio::fnv1a64(site), hit));
    // Top 53 bits -> uniform double in [0,1).
    double draw = double(h >> 11) * 0x1.0p-53;
    if (draw >= rate)
        return {};
    std::uint64_t entropy = hashMix(h);
    Decision d;
    d.kind = kinds[entropy % kinds.size()];
    switch (d.kind) {
      case Kind::Die:
        d.arg = dieExit;
        break;
      case Kind::ClockSkew:
        d.arg = std::int64_t(entropy % std::uint64_t(
                    2 * skewCapMs + 1)) - skewCapMs;
        break;
      case Kind::ShortWrite:
      case Kind::Enospc:
        d.arg = std::int64_t(entropy >> 1);
        break;
      default:
        break;
    }
    return d;
}

void
installPlan(const FaultPlan &plan)
{
    Injector &inj = injector();
    std::scoped_lock lock(inj.mutex);
    inj.envChecked = true;
    inj.hasPlan = true;
    inj.plan = plan;
    inj.resetLocked();
    g_active.store(true, std::memory_order_relaxed);
}

void
clearPlan()
{
    Injector &inj = injector();
    std::scoped_lock lock(inj.mutex);
    inj.envChecked = true;
    inj.hasPlan = false;
    inj.plan = FaultPlan{};
    inj.resetLocked();
    g_active.store(false, std::memory_order_relaxed);
}

bool
active()
{
    if (g_active.load(std::memory_order_relaxed))
        return true;
    Injector &inj = injector();
    std::scoped_lock lock(inj.mutex);
    ensureEnvLoadedLocked(inj);
    return inj.hasPlan;
}

Decision
at(const char *site)
{
    if (!active())
        return {};
    return hitSite(site);
}

void
checkpoint(const char *site)
{
    (void)at(site);
}

ssize_t
faultWrite(int fd, const void *data, std::size_t n, const char *site)
{
    Decision d = at(site);
    switch (d.kind) {
      case Kind::ShortWrite: {
        // Land a proper prefix of [1, n) bytes and report it short.
        std::size_t len = n > 1 ? 1 + std::uint64_t(d.arg) % (n - 1)
                                : 0;
        if (len > 0)
            (void)!::write(fd, data, len);
        return ssize_t(len);
      }
      case Kind::Enospc: {
        // A torn prefix may land before the device fills up.
        std::size_t len = n > 0 ? std::uint64_t(d.arg) % n : 0;
        if (len > 0)
            (void)!::write(fd, data, len);
        errno = ENOSPC;
        return -1;
      }
      case Kind::Eio:
      case Kind::RenameFail:
        errno = EIO;
        return -1;
      default:
        return ::write(fd, data, n);
    }
}

bool
renameShouldFail(const char *site)
{
    Decision d = at(site);
    return d.kind == Kind::RenameFail || d.kind == Kind::Eio ||
           d.kind == Kind::Enospc;
}

std::int64_t
clockSkewMs()
{
    if (!active())
        return 0;
    Injector &inj = injector();
    {
        std::scoped_lock lock(inj.mutex);
        if (inj.skewDecided)
            return inj.skewMs;
    }
    Decision d = at("queue.clock");
    std::scoped_lock lock(inj.mutex);
    if (!inj.skewDecided) {
        inj.skewDecided = true;
        inj.skewMs = d.kind == Kind::ClockSkew ? d.arg : 0;
    }
    return inj.skewMs;
}

} // namespace cfl::fault
