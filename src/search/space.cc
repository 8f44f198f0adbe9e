#include "search/space.hh"

#include <algorithm>
#include <set>
#include <sstream>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/strings.hh"
#include "sim/presets.hh"

namespace cfl::search
{

namespace
{

/** Parse a strictly-positive decimal axis value that fits unsigned:
 *  DesignOverlay::applyTo narrows several axes to unsigned, so a wider
 *  value would simulate a different design under the same slug. */
std::uint64_t
parseValue(const std::string &axis, const std::string &text)
{
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos)
        cfl_fatal("axis \"%s\": value \"%s\" is not a decimal integer",
                  axis.c_str(), text.c_str());
    const std::uint64_t v =
        parseUnsignedFlag("axis \"" + axis + "\"", text);
    if (v == 0)
        cfl_fatal("axis \"%s\": 0 is reserved for \"unset\"",
                  axis.c_str());
    return v;
}

} // namespace

const std::vector<std::string> &
axisVocabulary()
{
    static const std::vector<std::string> kAxes = {
        "btb_entries",        "btb_ways",
        "l2_entries",         "air_bundles",
        "air_branch_entries", "air_overflow_entries",
        "shift_history",      "shift_stream_depth",
    };
    return kAxes;
}

bool
axisRelevant(const std::string &axis, FrontendKind kind)
{
    if (axis == "btb_entries" || axis == "btb_ways")
        return kind == FrontendKind::Baseline ||
               kind == FrontendKind::Fdp ||
               kind == FrontendKind::IdealBtbShift;
    if (axis == "l2_entries")
        return kind == FrontendKind::TwoLevelFdp ||
               kind == FrontendKind::TwoLevelShift;
    if (axis == "air_bundles" || axis == "air_branch_entries" ||
        axis == "air_overflow_entries")
        return kind == FrontendKind::Confluence;
    if (axis == "shift_history" || axis == "shift_stream_depth")
        return usesShift(kind);
    cfl_fatal("unknown search axis \"%s\"", axis.c_str());
}

std::uint64_t &
overlayField(DesignOverlay &overlay, const std::string &axis)
{
    if (axis == "btb_entries")
        return overlay.btbEntries;
    if (axis == "btb_ways")
        return overlay.btbWays;
    if (axis == "l2_entries")
        return overlay.l2Entries;
    if (axis == "air_bundles")
        return overlay.airBundles;
    if (axis == "air_branch_entries")
        return overlay.airBranchEntries;
    if (axis == "air_overflow_entries")
        return overlay.airOverflowEntries;
    if (axis == "shift_history")
        return overlay.shiftHistoryEntries;
    if (axis == "shift_stream_depth")
        return overlay.shiftStreamDepth;
    cfl_fatal("unknown search axis \"%s\"", axis.c_str());
}

DesignSpace
DesignSpace::parse(const std::string &spec)
{
    DesignSpace space;
    std::vector<Axis> byName; // spec order, reordered canonically below

    std::istringstream in(spec);
    std::string entry;
    while (std::getline(in, entry, ';')) {
        if (entry.empty())
            cfl_fatal("empty entry in space spec \"%s\"", spec.c_str());
        const std::size_t eq = entry.find('=');
        if (eq == std::string::npos || eq == 0 ||
            eq + 1 >= entry.size())
            cfl_fatal("space entry \"%s\" is not name=v1,v2,...",
                      entry.c_str());
        const std::string name = entry.substr(0, eq);
        const std::vector<std::string> values =
            splitList(entry.substr(eq + 1));
        if (name == "kinds") {
            if (!space.kinds.empty())
                cfl_fatal("duplicate \"kinds\" entry in space spec");
            for (const std::string &slug : values) {
                const FrontendKind kind = frontendKindFromSlug(slug);
                if (std::find(space.kinds.begin(), space.kinds.end(),
                              kind) != space.kinds.end())
                    cfl_fatal("duplicate kind \"%s\" in space spec",
                              slug.c_str());
                space.kinds.push_back(kind);
            }
            continue;
        }
        if (std::find(axisVocabulary().begin(), axisVocabulary().end(),
                      name) == axisVocabulary().end())
            cfl_fatal("unknown search axis \"%s\"", name.c_str());
        for (const Axis &a : byName)
            if (a.name == name)
                cfl_fatal("duplicate axis \"%s\" in space spec",
                          name.c_str());
        Axis axis;
        axis.name = name;
        for (const std::string &v : values) {
            const std::uint64_t value = parseValue(name, v);
            if (std::find(axis.values.begin(), axis.values.end(),
                          value) != axis.values.end())
                cfl_fatal("duplicate value %llu on axis \"%s\"",
                          static_cast<unsigned long long>(value),
                          name.c_str());
            axis.values.push_back(value);
        }
        byName.push_back(std::move(axis));
    }
    if (space.kinds.empty())
        cfl_fatal("space spec \"%s\" has no kinds= entry", spec.c_str());

    // Canonical axis order, independent of spec order, so two spellings
    // of one space enumerate (and journal) identically.
    for (const std::string &name : axisVocabulary())
        for (Axis &a : byName)
            if (a.name == name)
                space.axes.push_back(std::move(a));
    return space;
}

std::string
DesignSpace::encode() const
{
    std::ostringstream out;
    out << "kinds=";
    for (std::size_t i = 0; i < kinds.size(); ++i)
        out << (i > 0 ? "," : "") << frontendKindSlug(kinds[i]);
    for (const Axis &axis : axes) {
        out << ";" << axis.name << "=";
        for (std::size_t i = 0; i < axis.values.size(); ++i)
            out << (i > 0 ? "," : "") << axis.values[i];
    }
    return out.str();
}

std::string
Candidate::slug() const
{
    std::string out = frontendKindSlug(kind);
    DesignOverlay copy = overlay;
    for (const std::string &axis : axisVocabulary()) {
        const std::uint64_t value = overlayField(copy, axis);
        if (value != 0) {
            out += "+" + axis + "=" + std::to_string(value);
        }
    }
    return out;
}

Candidate
candidateFromSlug(const std::string &slug)
{
    Candidate c;
    std::istringstream in(slug);
    std::string part;
    bool first = true;
    while (std::getline(in, part, '+')) {
        if (first) {
            c.kind = frontendKindFromSlug(part);
            first = false;
            continue;
        }
        const std::size_t eq = part.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 >= part.size())
            cfl_fatal("candidate slug part \"%s\" is not axis=value",
                      part.c_str());
        const std::string axis = part.substr(0, eq);
        overlayField(c.overlay, axis) =
            parseValue(axis, part.substr(eq + 1));
    }
    if (first)
        cfl_fatal("empty candidate slug");
    return c;
}

bool
validCandidate(const Candidate &candidate)
{
    SystemConfig cfg = makeSystemConfig(1);
    candidate.overlay.applyTo(cfg);

    const auto setAssocOk = [](std::uint64_t entries, unsigned ways) {
        return ways > 0 && entries > 0 && entries % ways == 0 &&
               isPowerOfTwo(entries / ways);
    };

    switch (candidate.kind) {
      case FrontendKind::Baseline:
      case FrontendKind::Fdp:
        if (!setAssocOk(cfg.baselineBtb.entries, cfg.baselineBtb.ways))
            return false;
        break;
      case FrontendKind::IdealBtbShift:
        if (!setAssocOk(cfg.idealBtb.entries, cfg.idealBtb.ways))
            return false;
        break;
      case FrontendKind::TwoLevelFdp:
      case FrontendKind::TwoLevelShift:
        if (!setAssocOk(cfg.twoLevel.l1Entries, cfg.twoLevel.l1Ways) ||
            !setAssocOk(cfg.twoLevel.l2Entries, cfg.twoLevel.l2Ways))
            return false;
        break;
      case FrontendKind::Confluence:
        if (!setAssocOk(cfg.air.bundles, cfg.air.ways))
            return false;
        if (cfg.air.branchEntries < 1 || cfg.air.branchEntries > 8)
            return false;
        break;
      default:
        break;
    }
    if (usesShift(candidate.kind) &&
        (cfg.shift.historyEntries == 0 || cfg.shift.streamDepth == 0))
        return false;
    return true;
}

std::vector<Candidate>
enumerateCandidates(const DesignSpace &space)
{
    std::vector<Candidate> out;
    std::set<std::string> seen;

    for (const FrontendKind kind : space.kinds) {
        // Per-kind cross product over the *relevant* axes only; the
        // irrelevant ones stay unset, which is exactly the masking that
        // keeps digest-distinct-but-result-identical overlays out.
        std::vector<const Axis *> axes;
        for (const Axis &axis : space.axes)
            if (axisRelevant(axis.name, kind))
                axes.push_back(&axis);

        std::vector<std::size_t> index(axes.size(), 0);
        while (true) {
            Candidate c;
            c.kind = kind;
            for (std::size_t a = 0; a < axes.size(); ++a)
                overlayField(c.overlay, axes[a]->name) =
                    axes[a]->values[index[a]];
            if (validCandidate(c) && seen.insert(c.slug()).second)
                out.push_back(c);

            // Odometer increment, last axis fastest.
            if (axes.empty())
                break;
            std::size_t a = axes.size();
            bool wrapped = true;
            while (a > 0 && wrapped) {
                --a;
                if (++index[a] < axes[a]->values.size())
                    wrapped = false;
                else
                    index[a] = 0;
            }
            if (wrapped)
                break; // every relevant axis cycled: kind exhausted
        }
    }
    return out;
}

} // namespace cfl::search
