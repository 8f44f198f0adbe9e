#include "tracer.hh"

#include <algorithm>
#include <atomic>
#include <sstream>
#include <utility>

namespace perfbench
{

namespace
{

std::atomic<std::uint32_t> gLanes{0};
thread_local std::uint32_t tLane = 0;
thread_local const Scope *tInnermost = nullptr;

std::uint32_t
currentLane()
{
    if (tLane == 0)
        tLane = gLanes.fetch_add(1, std::memory_order_relaxed) + 1;
    return tLane;
}

using Interval = std::pair<std::int64_t, std::int64_t>;

/** Union of @p in (sorted, merged). */
std::vector<Interval>
unite(std::vector<Interval> in)
{
    std::sort(in.begin(), in.end());
    std::vector<Interval> out;
    for (const Interval &iv : in) {
        if (iv.second <= iv.first)
            continue;
        if (!out.empty() && iv.first <= out.back().second)
            out.back().second = std::max(out.back().second, iv.second);
        else
            out.push_back(iv);
    }
    return out;
}

} // namespace

Tracer::Tracer() : origin_(Clock::now())
{
    spans_.reserve(1 << 14);
}

std::int64_t
Tracer::now() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

std::uint32_t
Tracer::open(std::string name, std::uint32_t parent, std::uint32_t group)
{
    Span s;
    s.parent = parent;
    s.group = group;
    s.lane = currentLane();
    s.name = std::move(name);
    const std::lock_guard<std::mutex> lock(mutex_);
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.t0 = now();
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

void
Tracer::close(std::uint32_t id)
{
    const std::int64_t t = now();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[id - 1].t1 = t;
}

std::uint32_t
Tracer::newGroup()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return ++groups_;
}

std::vector<Span>
Tracer::spans() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

Scope::Scope(Tracer &tracer, std::string name)
    : Scope(tracer, std::move(name),
            tInnermost != nullptr ? tInnermost->id() : 0,
            tInnermost != nullptr ? tInnermost->group() : 0)
{
}

Scope::Scope(Tracer &tracer, std::string name, std::uint32_t parent,
             std::uint32_t group)
    : tracer_(tracer), id_(tracer.open(std::move(name), parent, group)),
      group_(group), outer_(tInnermost)
{
    tInnermost = this;
}

std::uint32_t
Scope::innermostId()
{
    return tInnermost != nullptr ? tInnermost->id() : 0;
}

Scope::~Scope()
{
    tracer_.close(id_);
    tInnermost = outer_;
}

LayerShares
layerShares(const std::vector<Span> &spans, std::uint32_t root)
{
    LayerShares out;
    std::vector<std::vector<std::uint32_t>> children(spans.size() + 1);
    for (const Span &s : spans)
        if (s.parent != 0)
            children[s.parent].push_back(s.id);

    struct SelfInterval
    {
        std::int64_t t0, t1;
        std::string layer;
    };
    std::vector<SelfInterval> selves;
    std::vector<std::uint32_t> todo = {root};
    while (!todo.empty()) {
        const Span &s = spans[todo.back() - 1];
        todo.pop_back();
        if (s.t1 < 0) {
            out.problems.push_back(s.name + " left open");
            continue;
        }
        std::vector<Interval> covered;
        for (const std::uint32_t c : children[s.id]) {
            const Span &child = spans[c - 1];
            if (child.t1 >= 0 && (child.t0 < s.t0 || child.t1 > s.t1))
                out.problems.push_back(child.name + " outlives its parent " +
                                       s.name);
            covered.emplace_back(std::max(child.t0, s.t0),
                                 std::min(child.t1 < 0 ? s.t1 : child.t1,
                                          s.t1));
            todo.push_back(c);
        }
        std::int64_t cursor = s.t0;
        for (const Interval &iv : unite(std::move(covered))) {
            if (iv.first > cursor)
                selves.push_back({cursor, iv.first, s.layer()});
            cursor = iv.second;
        }
        if (s.t1 > cursor)
            selves.push_back({cursor, s.t1, s.layer()});
    }

    // Sweep the self intervals in time order; each elementary segment
    // is split evenly among the self intervals active during it.
    struct Event
    {
        std::int64_t t;
        int delta;
        const std::string *layer;
    };
    std::vector<Event> events;
    for (const SelfInterval &iv : selves) {
        events.push_back({iv.t0, +1, &iv.layer});
        events.push_back({iv.t1, -1, &iv.layer});
    }
    std::sort(events.begin(), events.end(),
              [](const Event &a, const Event &b) { return a.t < b.t; });
    std::map<std::string, int> active;
    int total = 0;
    for (std::size_t i = 0; i < events.size();) {
        const std::int64_t t = events[i].t;
        for (; i < events.size() && events[i].t == t; ++i) {
            active[*events[i].layer] += events[i].delta;
            total += events[i].delta;
        }
        if (i == events.size() || total == 0)
            continue;
        const double dt = (events[i].t - t) * 1e-9;
        for (const auto &[layer, n] : active)
            if (n > 0)
                out.share[layer] += dt * n / total;
    }
    out.wall = spans[root - 1].seconds();
    return out;
}

std::string
spansJsonl(const std::vector<Span> &spans)
{
    std::ostringstream os;
    for (const Span &s : spans)
        os << "{\"id\":" << s.id << ",\"parent\":" << s.parent
           << ",\"group\":" << s.group << ",\"lane\":" << s.lane
           << ",\"name\":\"" << s.name << "\",\"t0_ns\":" << s.t0
           << ",\"t1_ns\":" << s.t1 << "}\n";
    return os.str();
}

} // namespace perfbench
