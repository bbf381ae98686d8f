/**
 * @file
 * The engine metrics registry: named counters, gauges, and histograms
 * that are safe to bump from every worker of Engine::runGrid.
 *
 * Design constraints, in order:
 *  - the hot path (Counter::inc on a resolved handle) must be one
 *    relaxed atomic add — workers bump cache and utilization counters
 *    once per grid cell, and the registry must stay invisible in the
 *    simulation rate and clean under -DMXL_SANITIZE=thread;
 *  - handles are stable: counter()/gauge()/histogram() return
 *    references that live as long as the registry, so callers resolve
 *    a name once (registry lookup takes the registry mutex) and bump
 *    lock-free afterwards;
 *  - snapshots are deterministic: snapshot() serializes every metric
 *    through support/json.h with names in sorted order, so equal
 *    metric populations produce byte-identical JSON.
 *
 * Histograms use power-of-two buckets (bucket i counts values v with
 * bit_width(v) == i, i.e. 0, 1, 2-3, 4-7, ...): coarse, but cheap
 * enough for the hot path and sufficient for latency distributions
 * whose interesting structure spans decades (queue waits from
 * microseconds to seconds).
 */

#ifndef MXLISP_OBS_METRICS_H_
#define MXLISP_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "support/json.h"

namespace mxl {

/** Monotonic event count. */
class Counter
{
  public:
    void
    inc(uint64_t n = 1)
    {
        v_.fetch_add(n, std::memory_order_relaxed);
    }

    uint64_t value() const { return v_.load(std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> v_{0};
};

/** Point-in-time signed value (e.g. queue depth). */
class Gauge
{
  public:
    void set(int64_t v) { v_.store(v, std::memory_order_relaxed); }

    void
    add(int64_t d)
    {
        v_.fetch_add(d, std::memory_order_relaxed);
    }

    int64_t value() const { return v_.load(std::memory_order_relaxed); }

  private:
    std::atomic<int64_t> v_{0};
};

/** Power-of-two-bucketed distribution of uint64 observations. */
class Histogram
{
  public:
    /** Bucket i counts observations whose bit width is i (0..64). */
    static constexpr int kBuckets = 65;

    void observe(uint64_t v);

    uint64_t count() const { return count_.load(std::memory_order_relaxed); }
    uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
    uint64_t max() const { return max_.load(std::memory_order_relaxed); }
    double mean() const;

    uint64_t
    bucket(int i) const
    {
        return buckets_[i].load(std::memory_order_relaxed);
    }

    /**
     * Nearest-rank percentile over the power-of-two buckets: the
     * value returned is the UPPER bound of the bucket holding the
     * ceil(p * count)-th smallest observation, clamped to the exact
     * observed max — an upper-bound estimate (within 2x of the true
     * rank value) that never understates a latency. @p p is in
     * [0, 1]; an empty histogram reports 0.
     */
    uint64_t percentile(double p) const;

    /** {count, sum, max, mean, p50, p95, p99,
     *  buckets:{"<lo>": n, ...}} with empty buckets omitted; bucket
     *  keys are the range's lower bound. */
    Json toJson() const;

    /**
     * Fold a relayed delta (the count/sum/max/buckets shape toJson
     * emits, with counts as increments and max absolute) into this
     * histogram. Missing fields are treated as zero; unknown bucket
     * keys are ignored. Safe against concurrent observe().
     */
    void mergeDelta(const Json &delta);

  private:
    std::atomic<uint64_t> count_{0};
    std::atomic<uint64_t> sum_{0};
    std::atomic<uint64_t> max_{0};
    std::atomic<uint64_t> buckets_[kBuckets] = {};
};

/**
 * A named family of metrics. Lookup registers on first use; the
 * returned reference stays valid for the registry's lifetime. A name
 * identifies exactly one kind — asking for an existing name as a
 * different kind panics (it is a bug, not a runtime condition).
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    /**
     * Serialize every registered metric:
     * {"counters":{...},"gauges":{...},"histograms":{...}}, names
     * sorted. Concurrent bumps during a snapshot are safe (each value
     * is read atomically); the snapshot is a consistent-enough view
     * for reporting, not a linearizable cut.
     */
    Json snapshot() const;

    /**
     * snapshot() serialized to its compact single-line JSON text —
     * the health endpoint's wire payload (serve/server.h). Sorted
     * metric names plus support/json's insertion-ordered objects make
     * the text deterministic: equal metric populations produce
     * byte-identical strings, and the text reparses to a Json that
     * re-dumps identically (round-trip tested in tests/test_obs.cc).
     */
    std::string snapshotJson() const { return snapshot().dump(); }

    /**
     * The change since @p *baseline (a prior snapshot(); pass an
     * empty/null Json for "everything"), in snapshot() shape:
     * counters and histogram buckets/count/sum carry *increments*,
     * gauges and histogram max carry current absolutes. Entries that
     * did not change are omitted. @p *baseline is advanced to the
     * current snapshot, so successive calls relay disjoint deltas —
     * the worker side of the fork-boundary metrics relay
     * (support/procpool.h): each result carries only what happened
     * since the previous one.
     */
    Json deltaJson(Json *baseline) const;

    /**
     * Fold a deltaJson() document into this registry: counters are
     * incremented, gauges set, histograms accumulated via
     * Histogram::mergeDelta. Registers names on first sight; a name
     * already registered as a different kind panics (same contract as
     * direct lookup). Merging is associative across delta groupings
     * and merging an empty delta is the identity, so relays can be
     * batched or replayed in any grouping that preserves per-source
     * order (tests/test_obs.cc).
     */
    void merge(const Json &delta);

  private:
    enum class Kind { Counter, Gauge, Histogram };

    struct Entry
    {
        Kind kind;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    Entry &resolve(const std::string &name, Kind kind);

    mutable std::mutex mu_;
    std::map<std::string, Entry> metrics_; ///< sorted => snapshot order
};

} // namespace mxl

#endif // MXLISP_OBS_METRICS_H_
