/**
 * @file
 * The three workloads and what they report back to main().
 */

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/** Operations attempted/failed, the metrics, and failure notes. */
struct Outcome
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    MetricSink metrics;
    std::vector<std::string> notes;

    void note(const std::string &n)
    {
        if (notes.size() < 20)
            notes.push_back(n);
    }
};

/** Figure 1's split of one pass's simulated cycles (per-layer). */
void addCycleMetrics(MetricSink &s, const CycleTotals &t);

/** The serve layer's per-layer numbers; zero off served_mix. */
struct ServeLayer
{
    double e2eP50 = 0, execP50 = 0, queueP50 = 0, admissionP50 = 0;
    double clientOverheadMs = 0, pingMs = 0;
    double shed = 0, workerDeaths = 0;
};
void addServeMetrics(MetricSink &s, const ServeLayer &l);

/** paper_grid and check_ladder. */
void runGridWorkload(const Options &o, const Reference &ref, Outcome &out);

/** served_mix. */
void runServedWorkload(const Options &o, const Reference &ref,
                       Outcome &out);

/** Run every distinct cell of every workload on Backend::Interpreter
 *  and write the oracle's reference file. */
bool makeReference(const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H_
