/**
 * @file
 * Lightweight statistics package: named scalar counters grouped into
 * StatSet objects that components expose.
 *
 * Components register every counter in a StatSet when they are built
 * and keep a Stat pointer for the hot path; the experiment harness
 * reads values by name (Cmp::collectMetrics), and a name that was
 * never registered is a bug, not a zero.
 */

#ifndef CFL_COMMON_STATS_HH
#define CFL_COMMON_STATS_HH

#include <map>
#include <string>
#include <vector>

#include "common/types.hh"

namespace cfl
{

/** A named monotonically-increasing scalar statistic. */
class Stat
{
  public:
    Stat() = default;

    void inc(Counter delta = 1) { value_ += delta; }
    void set(Counter v) { value_ = v; }
    void reset() { value_ = 0; }
    Counter value() const { return value_; }

  private:
    Counter value_ = 0;
};

/**
 * A registry of named statistics owned by one component.
 *
 * Names are hierarchical by convention ("btb.misses", "l1i.demandHits").
 */
class StatSet
{
  public:
    explicit StatSet(std::string component_name = "");

    /** Create-or-get a scalar by name. */
    Stat &scalar(const std::string &name);

    /** Read a registered scalar by name; panics, in every build, on a
     *  name that was never registered. */
    Counter get(const std::string &name) const;

    /** All (name, value) pairs sorted by name. */
    std::vector<std::pair<std::string, Counter>> dump() const;

    /** Reset every registered scalar to zero. */
    void resetAll();

    const std::string &name() const { return componentName_; }

  private:
    std::string componentName_;
    std::map<std::string, Stat> scalars_;
};

} // namespace cfl

#endif // CFL_COMMON_STATS_HH
