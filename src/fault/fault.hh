/**
 * @file
 * Deterministic, seeded fault injection for the durability stack.
 *
 * Every durability-critical syscall site in src/queue, src/dispatch,
 * and the worker/sweep tools is threaded through this layer under a
 * stable site name ("queue.done.write", "cache.flush.write",
 * "sweep.result.publish", ...). A FaultPlan decides, per site and per
 * hit ordinal, whether that operation fails — and how: a short (torn)
 * write, ENOSPC, EIO, a failed rename, outright process death (clean
 * _exit or SIGKILL), or a lease-clock skew. Decisions are a pure
 * function of (plan seed, site name, per-process per-site hit count),
 * so a plan replays exactly: the same plan over the same execution
 * fires the same faults at the same operations, independent of how
 * *other* sites interleave (each site counts its own hits).
 *
 * Plans come from the CONFLUENCE_FAULT_PLAN environment variable (the
 * chaos harness launches every process with its own plan) or from
 * installPlan() (tests). The spec grammar, ';'-separated key=value
 * fields:
 *
 *   seed=N            decision seed (default 0)
 *   rate=F            per-hit fire probability in [0,1] (default 0)
 *   kinds=a,b,..      fault kinds the rate draws from: short-write,
 *                     enospc, eio, rename-fail, die, kill, clock-skew
 *   sites=p1,p2,..    site-name prefixes the rate applies to
 *                     (default: every instrumented site)
 *   pin=SITE@HIT:KIND[:ARG]
 *                     fire KIND at exactly the HITth hit of SITE
 *                     (repeatable; pins override the rate). ARG is the
 *                     die exit code / signed skew ms / write entropy.
 *   log=PATH          append "fault site=.. hit=.. kind=.. arg=.."
 *                     per fired fault (single O_APPEND write each)
 *   die-exit=N        exit code of `die` when a pin gives no ARG
 *                     (default 4, confluence_sweep's documented
 *                     injected-fault code)
 *   skew-cap-ms=N     clock-skew magnitude cap (default 30000)
 *
 * When no plan is configured, every helper is a cheap no-op (one
 * relaxed atomic load), so production paths pay nothing.
 */

#ifndef CFL_FAULT_FAULT_HH
#define CFL_FAULT_FAULT_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <sys/types.h>
#include <vector>

namespace cfl::fault
{

enum class Kind : std::uint8_t
{
    None,
    ShortWrite, ///< write() lands a prefix and reports the short count
    Enospc,     ///< write() may land a torn prefix, then fails ENOSPC
    Eio,        ///< the operation fails EIO, nothing lands
    RenameFail, ///< rename() fails without renaming
    Die,        ///< the process _exit()s on the spot (arg = exit code)
    Kill,       ///< the process raises SIGKILL on the spot
    ClockSkew,  ///< queue wall clock shifts by arg ms (signed, sticky)
};

/** The stable slug of @p kind ("short-write", "die", ...). */
const char *kindSlug(Kind kind);

/** The Kind for @p slug, or nullopt for an unknown spelling. */
std::optional<Kind> kindFromSlug(std::string_view slug);

/** Whether @p kind is an I/O failure — the kinds a site that is not a
 *  write/rename can still interpret as "this operation failed". */
constexpr bool
isIoFault(Kind kind)
{
    return kind == Kind::ShortWrite || kind == Kind::Enospc ||
           kind == Kind::Eio || kind == Kind::RenameFail;
}

/** What a site hit should do. arg: exit code for Die, signed skew ms
 *  for ClockSkew, raw entropy for ShortWrite/Enospc (callers reduce it
 *  modulo the write size). */
struct Decision
{
    Kind kind = Kind::None;
    std::int64_t arg = 0;
};

/** One exact-hit injection: fire @p kind at hit @p hit of @p site. */
struct FaultPin
{
    std::string site;
    std::uint64_t hit = 0;
    Kind kind = Kind::None;
    bool hasArg = false;
    std::int64_t arg = 0;
};

/**
 * A complete, replayable fault schedule. decide() is pure — equal
 * plans give equal decisions — so the global injector below is just
 * this plus per-site hit counters and a log.
 */
struct FaultPlan
{
    std::uint64_t seed = 0;
    double rate = 0.0;
    std::vector<Kind> kinds;
    std::vector<std::string> sitePrefixes; ///< empty = all sites
    std::vector<FaultPin> pins;
    std::string logPath;
    int dieExit = 4;
    std::int64_t skewCapMs = 30000;

    /** Parse the spec grammar above; false + *error on a bad spec. */
    static bool parse(const std::string &spec, FaultPlan *out,
                      std::string *error);

    /** Re-encode into a spec string parse() accepts (the chaos driver
     *  builds plans programmatically and ships them through the
     *  environment). Defaults are omitted. */
    std::string encode() const;

    /** The decision for hit @p hit of @p site: pins first, then the
     *  seeded rate draw over matching site prefixes. Pure. */
    Decision decide(std::string_view site, std::uint64_t hit) const;
};

// --- process-global injector -------------------------------------------

/** Install @p plan for this process (tests).
 *  Overrides any environment-configured plan and resets hit counters. */
void installPlan(const FaultPlan &plan);

/** Remove the active plan and reset all injector state (counters,
 *  skew, log). The environment is not re-read afterwards. */
void clearPlan();

/** Whether any plan is active (loading CONFLUENCE_FAULT_PLAN on first
 *  use). */
bool active();

/**
 * Count one hit of @p site and return its decision. Die and Kill are
 * carried out *here* — any instrumented site is a potential death
 * point — after logging and a stderr warning; every other kind is
 * returned for the caller to simulate. No-op (Kind::None) when no plan
 * is active.
 */
Decision at(const char *site);

/** at() for pure death points (worker/coordinator checkpoints): any
 *  surviving, non-death decision is deliberately ignored. */
void checkpoint(const char *site);

/**
 * ::write(fd, data, n) routed through the fault layer as @p site.
 * ShortWrite lands a proper prefix and returns its (short) length;
 * Enospc lands a torn prefix then returns -1 with errno = ENOSPC; Eio
 * returns -1 with errno = EIO and writes nothing. Everything else
 * (including no fault) performs the real write.
 */
ssize_t faultWrite(int fd, const void *data, std::size_t n,
                   const char *site);

/** Whether an injected failure should make this site's rename fail
 *  (RenameFail/Eio/Enospc fired). Counts a hit either way. */
bool renameShouldFail(const char *site);

/** The sticky per-process lease-clock skew in ms, decided once at site
 *  "queue.clock" (0 when no plan or no ClockSkew fired). */
std::int64_t clockSkewMs();

/** RAII plan installation for tests. */
struct ScopedPlanForTesting
{
    explicit ScopedPlanForTesting(const FaultPlan &plan)
    {
        installPlan(plan);
    }
    ~ScopedPlanForTesting() { clearPlan(); }
    ScopedPlanForTesting(const ScopedPlanForTesting &) = delete;
    ScopedPlanForTesting &operator=(const ScopedPlanForTesting &) =
        delete;
};

} // namespace cfl::fault

#endif // CFL_FAULT_FAULT_HH
