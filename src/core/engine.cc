#include "core/engine.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "analysis/verify.h"
#include "exec/texec.h"
#include "support/panic.h"

namespace mxl {

namespace {

/**
 * A pristine image is almost entirely zeros (the heap and stack start
 * empty; only the static area is populated), so cached units keep just
 * the prefix up to the last nonzero word. compileUnit writes nothing
 * at or above layout.staticLimit (ImageBuilder::setWord asserts it), so
 * the scan starts there.
 */
Memory
trimToLivePrefix(const Memory &full, const RuntimeLayout &layout)
{
    uint32_t live = (layout.staticLimit + 3) / 4;
    while (live > 0 && full.word(live - 1) == 0)
        --live;
    return Memory(live * 4, full);
}

/** Rebuild the full-size pristine image from a trimmed cached unit: a
 *  fresh lazily zeroed image with the live prefix copied in. */
Memory
expandImage(const CompiledUnit &unit)
{
    return Memory(unit.layout.memBytes, unit.memory);
}

/**
 * The engine whose worker pool is executing the current thread, if any.
 * Set once per worker in workerLoop(); runGrid() consults it to refuse
 * re-entrant grids instead of self-deadlocking.
 */
thread_local const Engine *tlsWorkerOwner = nullptr;

/** Trace track id: 1..N on a worker, 0 on any other thread. */
thread_local int tlsWorkerId = 0;

uint64_t
microsSince(std::chrono::steady_clock::time_point t0)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
}

/**
 * Run @p work, adding its wall time to @p micros and, while @p tr is
 * attached, recording it as a @p span span on the calling thread's
 * track.
 */
template <class F>
auto
timed(Counter &micros, TraceRecorder *tr, const char *span,
      const std::string &label, F &&work)
{
    const uint64_t trT0 = tr ? tr->nowMicros() : 0;
    auto t0 = std::chrono::steady_clock::now();
    auto result = work();
    micros.inc(microsSince(t0));
    if (tr)
        tr->complete(span, "engine", tlsWorkerId, trT0,
                     tr->nowMicros() - trT0, label);
    return result;
}

} // namespace

Engine::Engine(unsigned threads, size_t cacheCapacity, size_t cacheMaxBytes)
    : threads_(threads != 0 ? threads
                            : std::max(1u, std::thread::hardware_concurrency())),
      cacheCapacity_(std::max<size_t>(1, cacheCapacity)),
      cacheMaxBytes_(cacheMaxBytes)
{
}

Engine::~Engine()
{
    {
        std::lock_guard<std::mutex> lk(poolMu_);
        stopping_ = true;
    }
    poolCv_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

const char *
backendName(Backend b)
{
    switch (b) {
      case Backend::Auto: return "auto";
      case Backend::Interpreter: return "interpreter";
      case Backend::Translated: return "translated";
    }
    return "?";
}

bool
backendFromName(const std::string &name, Backend *out)
{
    for (Backend b :
         {Backend::Auto, Backend::Interpreter, Backend::Translated})
        if (name == backendName(b)) {
            *out = b;
            return true;
        }
    return false;
}

std::string
Engine::cacheKey(const std::string &source, const CompilerOptions &o)
{
    // Fixed field order; every independent variable of the compilation
    // participates. maxCycles is a run parameter, not a compile one.
    std::string k;
    k += schemeKindName(o.scheme);
    k += '|';
    k += o.checking == Checking::Full ? 'F' : 'O';
    k += static_cast<char>('0' + static_cast<int>(o.arithMode));
    k += o.hw.ignoreTagOnMemory ? '1' : '0';
    k += o.hw.branchOnTag ? '1' : '0';
    k += o.hw.genericArith ? '1' : '0';
    k += static_cast<char>('0' + static_cast<int>(o.hw.checkedMemory));
    k += o.hw.memTagging ? '1' : '0';
    k += o.fillDelaySlots ? '1' : '0';
    k += o.overlapChecks ? '1' : '0';
    k += o.verifyLinked ? '1' : '0';
    k += '|';
    k += std::to_string(o.memBytes);
    k += ',';
    k += std::to_string(o.staticBytes);
    k += ',';
    k += std::to_string(o.heapBytes);
    k += '\n';
    k += source;
    return k;
}

Engine::Compiled
Engine::getOrCompile(const std::string &source, const CompilerOptions &opts,
                     bool *cacheHit)
{
    const std::string key = cacheKey(source, opts);
    std::shared_future<Compiled> fut;
    std::promise<Compiled> prom;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lk(cacheMu_);
        auto it = cache_.find(key);
        if (it != cache_.end()) {
            ++hits_;
            mCacheHits_.inc();
            *cacheHit = true;
            lru_.splice(lru_.begin(), lru_, it->second);
            fut = it->second->future;
        } else {
            ++misses_;
            mCacheMisses_.inc();
            *cacheHit = false;
            owner = true;
            fut = prom.get_future().share();
            lru_.push_front(CacheEntry{key, fut, 0});
            cache_[key] = lru_.begin();
            evictOverLimits();
        }
    }
    if (!owner)
        return fut.get();

    // Compile outside the cache lock; waiters block on the future.
    Compiled c;
    try {
        auto unit = std::make_shared<CompiledUnit>(compileUnit(source, opts));
        unit->memory = trimToLivePrefix(unit->memory, unit->layout);
        c.unit = std::move(unit);
    } catch (const MxlError &e) {
        c.status.code = e.kind == MxlError::Kind::Fatal
                            ? RunStatus::Code::CompileError
                            : RunStatus::Code::InternalError;
        c.status.message = e.what();
    } catch (const std::exception &e) {
        c.status.code = RunStatus::Code::InternalError;
        c.status.message = e.what();
    }
    prom.set_value(c);

    // Account the entry's bytes now that the unit's size is known, and
    // re-check the byte bound (the entry may already be evicted).
    if (c.unit) {
        std::lock_guard<std::mutex> lk(cacheMu_);
        auto it = cache_.find(key);
        // bytes == 0 guards the evicted-and-reinserted race: only the
        // first finisher for a key accounts the entry.
        if (it != cache_.end() && it->second->bytes == 0) {
            it->second->bytes = c.unit->memory.size();
            cacheBytes_ += it->second->bytes;
            evictOverLimits();
        }
    }
    return c;
}

void
Engine::evictOverLimits()
{
    // LRU back first; the front (most recent) entry always survives, so
    // a unit larger than the whole byte budget is still cached once.
    while (lru_.size() > 1 &&
           (lru_.size() > cacheCapacity_ ||
            (cacheMaxBytes_ > 0 && cacheBytes_ > cacheMaxBytes_))) {
        cacheBytes_ -= lru_.back().bytes;
        cache_.erase(lru_.back().key);
        lru_.pop_back();
        ++evictions_;
        mCacheEvictions_.inc();
    }
}

Engine::CompileOutcome
Engine::compile(const std::string &source, const CompilerOptions &opts)
{
    CompileOutcome out;
    Compiled c = getOrCompile(source, opts, &out.cacheHit);
    // Translate eagerly, so a warm-up through compile() leaves the
    // default (Auto) runs of the cell nothing but the run.
    if (c.unit)
        translation(c.unit, "");
    out.unit = c.unit;
    out.status = c.status;
    return out;
}

TranslateResult
Engine::translation(const UnitPtr &unit, const std::string &label)
{
    return translations_.get(unit, [&] {
        return timed(mTranslateMicros_, trace(), "translate", label,
                     [&] { return translateUnit(*unit); });
    });
}

std::string
Engine::verdict(const UnitPtr &unit, const std::string &label)
{
    return verdicts_.get(unit, [&] {
        VerifyResult ver = timed(mVerifyMicros_, trace(), "verify", label,
                                 [&] { return verifyUnit(*unit); });
        return ver.ok() ? std::string() : ver.render();
    });
}

RunReport
Engine::execute(const RunRequest &req)
{
    RunReport rep;
    rep.label = req.label;
    TraceRecorder *tr = trace();
    const int tid = tlsWorkerId;
    auto t0 = std::chrono::steady_clock::now();
    uint64_t trT0 = tr ? tr->nowMicros() : 0;

    Compiled c = getOrCompile(req.source, req.opts, &rep.cacheHit);
    uint64_t compileUs = microsSince(t0);
    mCompileMicros_.inc(compileUs);
    if (tr && !rep.cacheHit)
        tr->complete("compile", "engine", tid, trT0,
                     tr->nowMicros() - trT0, req.label);
    rep.status = c.status;
    if (c.status.ok()) {
        try {
            // The transform comes first: the tier is chosen for the unit
            // that actually runs, so a rewritten unit runs translated
            // like any other.
            UnitPtr unit = c.unit;
            if (req.hooks.unitTransform) {
                unit = req.hooks.unitTransform(unit);
                if (!unit)
                    fatal("unitTransform returned a null unit");
                if (req.hooks.verifyTransformed && unit != c.unit) {
                    std::string why = verdict(unit, req.label);
                    if (!why.empty())
                        fatal("transformed unit rejected by load-time "
                              "verifier: ",
                              why);
                }
            }

            // Tier selection: a non-Interpreter request runs translated
            // when the unit translated. Auto falls back (counted +
            // stamped); an explicit Translated request that cannot be
            // satisfied is an error.
            const Backend want = req.exec.backend;
            TranslateResult trans;
            std::string note;
            if (want != Backend::Interpreter) {
                trans = translation(unit, req.label);
                if (!trans.unit)
                    note = trans.note.empty() ? "translation refused"
                                              : trans.note;
            }
            const bool useTrans = trans.unit != nullptr;
            rep.backend = useTrans ? Backend::Translated
                                   : Backend::Interpreter;
            if (want == Backend::Translated && !useTrans)
                throw MxlError(MxlError::Kind::Fatal,
                               strcat("translated backend unavailable: ",
                                      note));
            if (want == Backend::Auto && !useTrans) {
                rep.backendFellBack = true;
                rep.backendNote = note;
                mFallbacks_.inc();
            }

            Memory image =
                timed(mImageMicros_, tr, "image", req.label, [&] {
                    Memory m = expandImage(*unit);
                    if (req.hooks.imageMutator)
                        req.hooks.imageMutator(m, *unit);
                    return m;
                });
            const char *runCat = useTrans ? "engine/translated"
                                          : "engine/interpreter";
            auto tRun = std::chrono::steady_clock::now();
            uint64_t trR0 = tr ? tr->nowMicros() : 0;
            RunControls controls;
            controls.maxCycles = req.exec.maxCycles;
            controls.deadlineSeconds = req.exec.deadlineSeconds;
            controls.installTrapHandlers = req.exec.installTrapHandlers;
            controls.pauseAtCycle = req.hooks.pauseAtCycle;
            controls.pauseHook = req.hooks.pauseHook;
            controls.collectProfile = req.hooks.collectProfile;
            if (tr && req.hooks.pauseHook) {
                // Mark the pauseAtCycle pause on this worker's track.
                controls.pauseHook = [&](auto memory, auto regs,
                                         const CompiledUnit &u) {
                    tr->instant("pause", "engine", tid, req.label);
                    req.hooks.pauseHook(memory, regs, u);
                };
            }
            rep.result = useTrans ? runTranslated(*unit, *trans.unit,
                                                  std::move(image), controls)
                                  : runUnitOn(*unit, std::move(image),
                                              controls);
            mRunMicros_.inc(microsSince(tRun));
            if (tr)
                tr->complete("run", runCat, tid, trR0,
                             tr->nowMicros() - trR0, req.label);
            if (rep.result.timedOut) {
                mTimeouts_.inc();
                rep.status.code = RunStatus::Code::Timeout;
                rep.status.message =
                    strcat("deadline of ", req.exec.deadlineSeconds,
                           "s exceeded after ", rep.result.stats.total,
                           " cycles");
            }
        } catch (const std::exception &e) {
            // MxlError (a rejected or unrunnable unit) and anything a
            // caller's hook throws: the cell fails, the grid goes on.
            rep.status.code = RunStatus::Code::InternalError;
            rep.status.message = e.what();
        }
    }

    mRuns_.inc();
    mCellMicros_.observe(microsSince(t0));
    rep.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return rep;
}

RunReport
Engine::run(const RunRequest &req)
{
    return execute(req);
}

void
Engine::postFork()
{
    trace_.store(nullptr, std::memory_order_release);
    forked_.store(true, std::memory_order_release);
}

std::vector<RunReport>
Engine::runGrid(const std::vector<RunRequest> &reqs,
                const GridProgress &progress)
{
    if (forked_.load(std::memory_order_acquire)) {
        // Child process after postFork(): the worker threads recorded
        // in workers_ died in the fork, so queueing would hang forever.
        std::vector<RunReport> out(reqs.size());
        for (size_t i = 0; i < reqs.size(); ++i) {
            out[i].label = reqs[i].label;
            out[i].status.code = RunStatus::Code::InternalError;
            out[i].status.message =
                "runGrid() called in a forked child (postFork); only "
                "inline run() is available there";
        }
        return out;
    }
    if (tlsWorkerOwner == this) {
        // Re-entrant call from one of our own workers: blocking on the
        // pool here would deadlock (the calling worker can never drain
        // its own queue). Refuse deterministically instead.
        std::vector<RunReport> out(reqs.size());
        for (size_t i = 0; i < reqs.size(); ++i) {
            out[i].label = reqs[i].label;
            out[i].status.code = RunStatus::Code::InternalError;
            out[i].status.message =
                "runGrid() called from an engine worker thread; "
                "use a separate Engine for nested grids";
        }
        return out;
    }

    ensureWorkers();

    std::vector<std::future<RunReport>> futs;
    futs.reserve(reqs.size());
    {
        std::lock_guard<std::mutex> lk(poolMu_);
        auto enqueued = std::chrono::steady_clock::now();
        for (size_t i = 0; i < reqs.size(); ++i) {
            const RunRequest &req = reqs[i];
            auto task = std::make_shared<std::packaged_task<RunReport()>>(
                [this, req, i, progress, enqueued] {
                    mQueueWait_.observe(microsSince(enqueued));
                    RunReport rep = execute(req);
                    if (progress)
                        progress(i, rep);
                    return rep;
                });
            futs.push_back(task->get_future());
            queue_.push_back([task] { (*task)(); });
        }
    }
    poolCv_.notify_all();

    // Collect in request order: results are deterministic regardless of
    // which worker ran which cell.
    std::vector<RunReport> out;
    out.reserve(reqs.size());
    for (auto &f : futs)
        out.push_back(f.get());
    return out;
}

void
Engine::ensureWorkers()
{
    std::lock_guard<std::mutex> lk(poolMu_);
    if (!workers_.empty() || stopping_)
        return;
    workers_.reserve(threads_);
    for (unsigned i = 0; i < threads_; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

void
Engine::workerLoop(unsigned id)
{
    tlsWorkerOwner = this;
    tlsWorkerId = static_cast<int>(id) + 1;
    Counter &busy =
        metrics_.counter(strcat("engine.worker.", id + 1, ".busy_micros"));
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lk(poolMu_);
            poolCv_.wait(lk, [this] { return stopping_ || !queue_.empty(); });
            if (stopping_ && queue_.empty())
                return;
            job = std::move(queue_.front());
            queue_.pop_front();
        }
        auto t0 = std::chrono::steady_clock::now();
        job();
        busy.inc(microsSince(t0));
    }
}

int
Engine::currentWorkerId()
{
    return tlsWorkerId;
}

Engine::CacheStats
Engine::cacheStats() const
{
    std::lock_guard<std::mutex> lk(cacheMu_);
    CacheStats s;
    s.hits = hits_;
    s.misses = misses_;
    s.entries = cache_.size();
    s.bytes = cacheBytes_;
    s.byteLimit = cacheMaxBytes_;
    s.evictions = evictions_;
    return s;
}

void
Engine::clearCache()
{
    std::lock_guard<std::mutex> lk(cacheMu_);
    cache_.clear();
    lru_.clear();
    cacheBytes_ = 0;
}

Engine &
Engine::defaultEngine()
{
    static Engine engine;
    return engine;
}

} // namespace mxl
