/**
 * @file
 * Shared pieces of the perfbench driver: run options, timing and
 * percentile helpers, the metric sink that prints the result line, the
 * output oracle (a reference file of interpreter-backend results), the
 * per-cell layer ledger behind the traced run's sum check, and the
 * workload cell definitions.
 *
 * The benchmark drives mxlisp only through its public calls; every
 * span it records is recorded here, around those calls.
 */

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "core/engine.h"
#include "obs/trace.h"
#include "support/json.h"

namespace perfbench {

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string refPath = "perfbench/reference.json";
    std::string outDir = ".bench_build/out";
    std::string servedPath = ".bench_build/mxl-served";
    std::string makeReference; ///< non-empty: write the reference here
};

/**
 * Engine worker threads on the grid workloads, mxl-served worker
 * processes on served_mix. One: the reference host is a few vCPUs of a
 * shared machine, and every extra busy CPU measures the neighbours'
 * load as much as the program.
 */
inline constexpr unsigned kWorkers = 1;

double nowSeconds();

/** setup_s repetitions: at least 3, then until 4 s of set-up have been
 *  timed, at most 15; the fastest is reported. */
inline bool
moreSetups(const std::vector<double> &done)
{
    double spent = 0;
    for (double s : done)
        spent += s;
    return done.size() < 3 || (spent < 4.0 && done.size() < 15);
}

/**
 * Percentile of @p v by the exclusive method (Python's
 * statistics.quantiles): position p * (n + 1), interpolated; 0 when
 * empty. A pass holds a few dozen distinct cells, so a percentile
 * usually falls between two of them; nearest rank would pick the
 * slowest sample of the lower one, the sample a stall moves most.
 */
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

/**
 * The fastest of each distinct operation's repeats (ms), one value per
 * operation. Every grid cell is deterministic: the oracle checks that
 * each repeat does the same simulated work and prints the same output.
 * So the spread between repeats of one cell is the shared host's, which
 * only ever slows a repeat down, and the fastest repeat is the steadiest
 * estimate of the cell's own cost.
 */
std::vector<double>
fastestRepeats(const std::map<std::string, std::vector<double>> &repeats);

/** Completions per second in each of @p windows equal slices of
 *  [t0, t0 + wall], given each completion's time; the median slice. */
double medianWindowRate(const std::vector<double> &ends, double t0,
                        double wall, int windows);

/** Named metrics of one run, printed as the final JSON line. */
class MetricSink
{
  public:
    void add(const std::string &name, double value, const std::string &unit);
    /** The result object: correct/attempted/failed/metrics. */
    mxl::Json result(bool correct, uint64_t attempted,
                     uint64_t failed) const;

  private:
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics_;
};

/** Peak resident set (VmHWM) of @p pid in MiB; 0 when unreadable. */
double peakRssMb(long pid);

// ---- output oracle -------------------------------------------------

/** What the oracle compares for one distinct cell. */
struct Expected
{
    std::string outputHash; ///< FNV-1a 64 of the printed output, hex
    uint64_t outputBytes = 0;
    int64_t stop = 0;
    int64_t errorCode = 0;
    uint64_t exitValue = 0;
    mxl::CycleStats stats;
};

std::string fnv1a(const std::string &s);
Expected expectedOf(const mxl::RunResult &r);
mxl::Json expectedJson(const Expected &e);

class Reference
{
  public:
    bool load(const std::string &path, std::string *err);
    const Expected *find(const std::string &label) const;

  private:
    std::map<std::string, Expected> cells_;
};

/** Full comparison (output, stop, every CycleStats field); "" = match. */
std::string compareFull(const Expected &want, const mxl::RunResult &got);

// ---- cycle attribution (Figure 1) ----------------------------------

struct CycleTotals
{
    uint64_t total = 0;
    uint64_t byPurpose[mxl::numPurposes] = {};
    uint64_t loadStalls = 0;
    uint64_t squashed = 0;

    void add(const mxl::CycleStats &s);
    uint64_t tagCycles() const; ///< insert + remove + extract + check
    double tagPct() const;
};

// ---- traced-run layer ledger ---------------------------------------

/**
 * Host time of one cell split by layer, filled from the benchmark's own
 * hook marks and the engine's run span. unattributed() is the part of
 * the cell's wall time no layer covers: the sum check's remainder.
 */
struct CellLedger
{
    double wallMs = 0;
    double coreMs = 0;      ///< cache lookup + image expansion
    double analysisMs = 0;  ///< clone + transform + verify (check_ladder)
    double runMs = 0;       ///< the engine's run span
    bool interpreter = false;

    double unattributed() const
    {
        return wallMs - coreMs - analysisMs - runMs;
    }
};

/**
 * The stated sum-check tolerance: the remainder must be non-negative
 * (to 0.05 ms of clock granularity) and at most @p share of the wall
 * time or @p floorMs, whichever is larger.
 */
bool withinTolerance(const CellLedger &c, double share, double floorMs);

/** Engine cells: 5% or 0.25 ms. */
inline constexpr double kCellShare = 0.05, kCellFloorMs = 0.25;
/** Served requests: 25% or 1 ms. The remainder there is the client
 *  side plus the time a request waits in the server's socket before
 *  the poll loop decodes it, which other requests' relays delay. */
inline constexpr double kRequestShare = 0.25, kRequestFloorMs = 1.0;

/** Write @p rec to @p path and re-read it: a well-formed Chrome trace
 *  whose span categories include every name in @p layers. */
bool writeCheckedTrace(const mxl::TraceRecorder &rec,
                       const std::string &path,
                       const std::vector<std::string> &layers,
                       std::string *err);

/** Spans of the compile pipeline over @p reqs' distinct units (traced
 *  runs): sexpr.read, compiler.compile, exec.translate per unit. */
struct PipelineProfile
{
    double readMs = 0, compileMs = 0, translateMs = 0; ///< per unit
    uint64_t objectWords = 0; ///< summed over units
    uint64_t refusals = 0;    ///< units translateUnit() declined
};
PipelineProfile profilePipeline(const std::vector<mxl::RunRequest> &units,
                                mxl::TraceRecorder &rec);

/** Delta of a counter between two MetricsRegistry snapshots. */
uint64_t counterDelta(const mxl::Json &before, const mxl::Json &after,
                      const std::string &name);

// ---- workloads -----------------------------------------------------

/** The paper's measurement space: 10 programs x (baseline + 7 Table 2
 *  rows) x {Off, Full}; labels "<program>/<config>/<off|full>". */
std::vector<mxl::RunRequest> paperGridCells();

/** check_ladder's golden units: the 10 programs at baseline Full. */
std::vector<mxl::RunRequest> ladderUnits();

/** served_mix's distinct cells: wire CELL objects with their oracle
 *  labels. */
struct DeckCell
{
    std::string label;
    mxl::Json cell;
};
std::vector<DeckCell> servedDeck();

/**
 * The cells of served_mix request number @p seq, as indices into
 * servedDeck(). This is the request shape of bench/bench_serve.cc's
 * clients, the repository's one generator of service load, without its
 * chaos cells: 1 + seq % 3 source cells `(print (+ seq%7 c))` at the
 * default layout, plus the built-in program `inter` on every 4th
 * request.
 */
std::vector<size_t> servedRequest(uint64_t seq);

/** Fisher-Yates shuffle driven by @p rng (identical on every libstdc++:
 *  std::shuffle's distribution use is implementation-defined). */
template <class T>
void
shuffle(std::vector<T> &v, std::mt19937_64 &rng)
{
    for (size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng() % i]);
}

/** Run @p fn(i, worker) for i in [0, n) on @p threads threads; worker
 *  is the running thread's index, 1-based (a trace track id). */
void parallelFor(size_t n, unsigned threads,
                 const std::function<void(size_t, int)> &fn);

/** CPUs this process may run on (what nproc prints). */
unsigned hostThreads();

} // namespace perfbench

#endif // PERFBENCH_COMMON_H_
