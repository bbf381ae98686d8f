/**
 * @file
 * perfbench: the repository benchmark's driver binary.
 *
 *   perfbench --workload paper_grid|check_ladder|served_mix --seed N
 *             --seconds S --trace 0|1 [--commit ID] [--reference PATH]
 *             [--served PATH] [--out DIR]
 *   perfbench --make-reference PATH
 *
 * --reference is the oracle file (perfbench/reference.json), --served
 * the built mxl-served, --out where traces and the server's socket and
 * log go (default .bench_build/out).
 *
 * Prints a fingerprint line, then, as the last line of stdout, one JSON
 * object {correct, attempted, failed, metrics}: the end-to-end metrics
 * with --trace 0, the per-layer metrics with --trace 1. Run it through
 * perfbench/run.py, which builds it first.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <sys/stat.h>

#include "workloads.h"

using namespace perfbench;

// Build guard: numbers from an assertion-enabled or sanitizer build do
// not describe the program users run, so they are never reported.
#if !defined(NDEBUG)
#define PERFBENCH_REFUSE "assertions are enabled (NDEBUG is not defined)"
#elif defined(_GLIBCXX_ASSERTIONS) || defined(_GLIBCXX_DEBUG)
#define PERFBENCH_REFUSE "libstdc++ assertions are enabled"
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_REFUSE "built with a sanitizer"
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) ||                                    \
    __has_feature(undefined_behavior_sanitizer)
#define PERFBENCH_REFUSE "built with a sanitizer"
#endif
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

void
addCycleMetrics(MetricSink &s, const CycleTotals &t)
{
    static const char *const names[mxl::numPurposes] = {
        "useful", "insert", "remove", "extract",
        "check",  "dispatch", "other_check"};
    for (int p = 0; p < mxl::numPurposes; ++p)
        s.add(std::string("machine.cycles.") + names[p],
              double(t.byPurpose[p]), "cycles");
    s.add("machine.load_stalls", double(t.loadStalls), "cycles");
    s.add("machine.squashed", double(t.squashed), "cycles");
}

void
addServeMetrics(MetricSink &s, const ServeLayer &l)
{
    s.add("serve.e2e_ms_p50", l.e2eP50, "ms");
    s.add("serve.exec_ms_p50", l.execP50, "ms");
    s.add("serve.queue_ms_p50", l.queueP50, "ms");
    s.add("serve.admission_wait_ms_p50", l.admissionP50, "ms");
    s.add("serve.client_overhead_ms", l.clientOverheadMs, "ms");
    s.add("serve.ping_ms", l.pingMs, "ms");
    s.add("serve.shed", l.shed, "count");
    s.add("serve.worker_deaths", l.workerDeaths, "count");
}

} // namespace perfbench

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload paper_grid|check_ladder|"
                 "served_mix --seed N --seconds S --trace 0|1 "
                 "[--commit ID]\n"
                 "       perfbench --make-reference PATH\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    std::string commit = "unknown";
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage();
        const char *v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::strtoull(v, nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::atof(v);
        else if (a == "--trace")
            o.trace = std::strcmp(v, "0") != 0;
        else if (a == "--commit")
            commit = v;
        else if (a == "--make-reference")
            o.makeReference = v;
        else if (a == "--reference")
            o.refPath = v;
        else if (a == "--served")
            o.servedPath = v;
        else if (a == "--out")
            o.outDir = v;
        else
            return usage();
    }

#ifdef PERFBENCH_REFUSE
    std::fprintf(stderr, "perfbench: refusing to report: %s\n",
                 PERFBENCH_REFUSE);
    return 3;
#endif

    if (!o.makeReference.empty())
        return makeReference(o.makeReference) ? 0 : 1;
    if (o.workload != "paper_grid" && o.workload != "check_ladder" &&
        o.workload != "served_mix")
        return usage();
    if (!(o.seconds > 0))
        return usage();

    mkdir(o.outDir.c_str(), 0755);
    Reference ref;
    std::string err;
    if (!ref.load(o.refPath, &err)) {
        std::fprintf(stderr, "perfbench: %s\n", err.c_str());
        return 1;
    }

    mxl::Json fp = mxl::Json::object();
    fp.set("nproc", uint64_t(hostThreads()));
    fp.set("workers", uint64_t(kWorkers));
    fp.set("compiler", "g++ " __VERSION__);
    fp.set("buildType", PERFBENCH_BUILD_TYPE);
    fp.set("commit", commit);
    fp.set("workload", o.workload);
    fp.set("seed", o.seed);
    fp.set("seconds", o.seconds);
    fp.set("trace", o.trace);
    mxl::Json stamp = mxl::Json::object();
    stamp.set("fingerprint", std::move(fp));

    Outcome out;
    if (o.workload == "served_mix")
        runServedWorkload(o, ref, out);
    else
        runGridWorkload(o, ref, out);
    if (o.trace)
        out.metrics.add("failed_frac",
                        out.attempted ? double(out.failed) / out.attempted
                                      : 1.0,
                        "ratio");

    for (const std::string &n : out.notes)
        std::fprintf(stderr, "perfbench: FAIL %s\n", n.c_str());
    const bool correct = out.failed == 0 && out.attempted > 0;
    std::printf("%s\n%s\n", stamp.dump().c_str(),
                out.metrics.result(correct, out.attempted, out.failed)
                    .dump()
                    .c_str());
    return 0;
}
