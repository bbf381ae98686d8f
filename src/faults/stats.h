/**
 * @file
 * Campaign statistics: confidence intervals and cycle percentiles.
 *
 * A detection-coverage number from a finite campaign is an estimate,
 * and gating a CI on raw point estimates turns sampling noise into
 * build failures. This module gives every matrix cell a Wilson score
 * interval (the binomial interval that stays honest at the extremes —
 * 0/N and N/N cells get intervals that actually contain the truth,
 * where the naive normal interval collapses to a point) and summarizes
 * per-trial cycle counts as percentiles.
 *
 * The campaign bench writes the statistics into BENCH_faults.json
 * through coverageCellJson(), and the "wilson" gate (obs/bench_gate.h)
 * recomputes them from the same raw counts with finishCoverageCell(),
 * so the two sides can never disagree about what an interval means: a
 * cell regresses only when its after-interval lies entirely below its
 * before-interval, or when trials silently vanished into Skipped.
 */

#ifndef MXLISP_FAULTS_STATS_H_
#define MXLISP_FAULTS_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "support/json.h"

namespace mxl {

/** A closed real interval [lo, hi]. */
struct Interval
{
    double lo = 0;
    double hi = 0;
};

/**
 * Wilson score interval for @p successes detections in @p n trials at
 * confidence z (1.96 = 95%). n == 0 returns [0, 1] — no data restricts
 * nothing.
 */
Interval wilsonInterval(int successes, int n, double z = 1.96);

/** Nearest-rank percentile summary of a sample of cycle counts. */
struct PercentileSummary
{
    uint64_t count = 0;
    uint64_t min = 0;
    uint64_t p50 = 0;
    uint64_t p90 = 0;
    uint64_t p99 = 0;
    uint64_t max = 0;
};

/** Exact nearest-rank percentiles (sorts a copy of @p sample). */
PercentileSummary percentileSummary(const std::vector<uint64_t> &sample);

/** One (config, class) cell's coverage statistics, as exported to and
 *  re-read from BENCH_faults.json. */
struct CoverageCell
{
    std::string config;
    std::string cls;
    int detected = 0;
    int total = 0;   ///< all trials, including skipped
    int skipped = 0;
    double coverage = 0; ///< detected / (total - skipped); 0 if no data
    Interval ci;         ///< Wilson 95% on the same ratio
};

/** Compute the derived fields (coverage, ci) from the counts. */
void finishCoverageCell(CoverageCell *cell);

/** The cell's JSON form inside the bench matrix (flat keys: config,
 *  class, detected, total, skipped, coverage, ci_lo, ci_hi). */
Json coverageCellJson(const CoverageCell &cell);

} // namespace mxl

#endif // MXLISP_FAULTS_STATS_H_
