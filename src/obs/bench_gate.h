/**
 * @file
 * Declared regression gates: the record a bench writes into its
 * BENCH_*.json "gates" array, and the one loop tools/bench_diff runs
 * over them.
 *
 *     {"name": "cycles", "rows": "grid", "key": "label",
 *      "value": "stats.total", "kind": "lower", "threshold": 0}
 *
 * rows: dotted path to an array, whose elements are rows named by the
 * comma-separated key fields (joined with '/'), or to an object, whose
 * entries matching the key glob are rows. value: dotted path of the
 * gated number in a row (empty: the row itself). threshold: the percent
 * change lower/higher/percentile tolerate; a gate without one is strict
 * and ignores an override. floor: absolute change below which they
 * never fail. No kind reads a stored "coverage", "ci_*" or "p95", so a
 * stale or hand-edited one cannot sway a verdict.
 */

#ifndef MXLISP_OBS_BENCH_GATE_H_
#define MXLISP_OBS_BENCH_GATE_H_

#include <optional>
#include <string>

#include "support/json.h"

namespace mxl {

enum class GateKind
{
    Lower,      ///< AFTER may not rise above BEFORE
    Higher,     ///< AFTER may not fall below BEFORE (bools read 1/0)
    Exact,      ///< value names two fields equal in each AFTER row
    Wilson,     ///< "coverage" from detected/total/skipped: fails when
                ///< AFTER's Wilson 95% interval lies wholly below
                ///< BEFORE's, or more trials were skipped
    Percentile, ///< "pNN" nearest-rank from count/max/buckets, as Lower
};

/** One gate record, for a bench's "gates" array. */
Json gateJson(const std::string &name, const std::string &rows,
              const std::string &key, const std::string &value,
              GateKind kind, std::optional<double> threshold = {},
              std::optional<double> floor = {});

/** What evaluateGates() decided. */
struct GateVerdict
{
    int exitCode = 0;   ///< 0 pass, 1 regression, 2 input error
    std::string report; ///< one line per row, one verdict per gate
    std::string error;  ///< the input error when exitCode == 2
};

/**
 * Run @p before's gates over @p after. A gated row missing from AFTER,
 * failed there ("statusOk": false) or unreadable there fails; failed
 * BEFORE rows are skipped; rows and gates only AFTER has are reported,
 * never gated. No valid gates, a gate selecting no rows on either side
 * or an unreadable BEFORE value is an input error. @p thresholdPct
 * replaces declared thresholds; the names label the sides.
 */
GateVerdict evaluateGates(const Json &before, const Json &after,
                          std::optional<double> thresholdPct = {},
                          const std::string &beforeName = "BEFORE",
                          const std::string &afterName = "AFTER");

} // namespace mxl

#endif // MXLISP_OBS_BENCH_GATE_H_
