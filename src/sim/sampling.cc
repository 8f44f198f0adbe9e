#include "sim/sampling.hh"

#include <cmath>

namespace cfl
{

void
MetricEstimate::add(double x)
{
    ++count;
    const double delta = x - mean;
    mean += delta / static_cast<double>(count);
    m2 += delta * (x - mean);
}

double
MetricEstimate::variance() const
{
    if (count < 2)
        return 0.0;
    return m2 / static_cast<double>(count - 1);
}

double
MetricEstimate::standardError() const
{
    if (count == 0)
        return 0.0;
    return std::sqrt(variance() / static_cast<double>(count));
}

double
MetricEstimate::halfWidth95() const
{
    if (count < 2)
        return 0.0;
    return tCritical95(count - 1) * standardError();
}

bool
MetricEstimate::covers(double reference, double abs_slack) const
{
    return std::abs(mean - reference) <= halfWidth95() + abs_slack;
}

double
SampleEstimates::ipcMean() const
{
    if (cpi.count == 0 || cpi.mean <= 0.0)
        return 0.0;
    return 1.0 / cpi.mean;
}

double
tCritical95(std::uint64_t df)
{
    // Two-sided 95% critical values; beyond df = 30 the normal limit
    // is within 2% and sampled runs always have fewer intervals than
    // that matters for.
    static constexpr double kTable[] = {
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306,
        2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120,
        2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
        2.060,  2.056, 2.052, 2.048, 2.045, 2.042,
    };
    if (df == 0)
        return 0.0;
    if (df <= 30)
        return kTable[df - 1];
    return 1.96;
}

} // namespace cfl
