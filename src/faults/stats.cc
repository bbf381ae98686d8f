#include "faults/stats.h"

#include <algorithm>
#include <cmath>


namespace mxl {

Interval
wilsonInterval(int successes, int n, double z)
{
    Interval iv;
    if (n <= 0) {
        iv.lo = 0;
        iv.hi = 1;
        return iv;
    }
    double nn = static_cast<double>(n);
    double p = static_cast<double>(successes) / nn;
    double z2 = z * z;
    double denom = 1.0 + z2 / nn;
    double center = p + z2 / (2.0 * nn);
    double margin =
        z * std::sqrt(p * (1.0 - p) / nn + z2 / (4.0 * nn * nn));
    iv.lo = std::max(0.0, (center - margin) / denom);
    iv.hi = std::min(1.0, (center + margin) / denom);
    return iv;
}

namespace {

/** Nearest-rank: smallest element with at least ceil(q*count) at or
 *  below it. @p sorted must be nonempty and ascending. */
uint64_t
nearestRank(const std::vector<uint64_t> &sorted, double q)
{
    size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    if (rank == 0)
        rank = 1;
    if (rank > sorted.size())
        rank = sorted.size();
    return sorted[rank - 1];
}

} // namespace

PercentileSummary
percentileSummary(const std::vector<uint64_t> &sample)
{
    PercentileSummary s;
    if (sample.empty())
        return s;
    std::vector<uint64_t> sorted = sample;
    std::sort(sorted.begin(), sorted.end());
    s.count = sorted.size();
    s.min = sorted.front();
    s.max = sorted.back();
    s.p50 = nearestRank(sorted, 0.50);
    s.p90 = nearestRank(sorted, 0.90);
    s.p99 = nearestRank(sorted, 0.99);
    return s;
}

void
finishCoverageCell(CoverageCell *cell)
{
    int ran = cell->total - cell->skipped;
    cell->coverage =
        ran > 0 ? static_cast<double>(cell->detected) / ran : 0.0;
    cell->ci = wilsonInterval(cell->detected, ran);
}

Json
coverageCellJson(const CoverageCell &cell)
{
    Json j = Json::object();
    j.set("config", cell.config);
    j.set("class", cell.cls);
    j.set("detected", static_cast<int64_t>(cell.detected));
    j.set("total", static_cast<int64_t>(cell.total));
    j.set("skipped", static_cast<int64_t>(cell.skipped));
    j.set("coverage", cell.coverage);
    j.set("ci_lo", cell.ci.lo);
    j.set("ci_hi", cell.ci.hi);
    return j;
}

} // namespace mxl
