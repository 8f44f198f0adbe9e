#include "common/stats.hh"

#include "common/logging.hh"

namespace cfl
{

StatSet::StatSet(std::string component_name)
    : componentName_(std::move(component_name))
{
}

Stat &
StatSet::scalar(const std::string &name)
{
    return scalars_[name];
}

Counter
StatSet::get(const std::string &name) const
{
    const auto it = scalars_.find(name);
    if (it == scalars_.end())
        cfl_panic("%s: no stat named \"%s\"", componentName_.c_str(),
                  name.c_str());
    return it->second.value();
}

std::vector<std::pair<std::string, Counter>>
StatSet::dump() const
{
    std::vector<std::pair<std::string, Counter>> out;
    out.reserve(scalars_.size());
    for (const auto &[name, stat] : scalars_)
        out.emplace_back(name, stat.value());
    return out;
}

void
StatSet::resetAll()
{
    for (auto &[name, stat] : scalars_)
        stat.reset();
}

} // namespace cfl
