/**
 * @file
 * bench_diff [--threshold PCT] BEFORE.json AFTER.json — run every gate
 * BEFORE declares over AFTER (obs/bench_gate.h): exit 0 when all pass,
 * 1 on a regression (a gated row missing or failed in AFTER counts), 2
 * on a usage or input error. --threshold replaces the percentage of
 * the gates declared with one. `bench_diff F F` runs F's self-checks,
 * such as the equal interpreter/translated cycles of backend pairs.
 */

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include <sys/stat.h>

#include "obs/bench_gate.h"

namespace {

/** Load one artifact, diagnosing a missing path, a directory (which
 *  ifstream "opens" and reads nothing from), an empty file and
 *  malformed JSON distinctly: a bad artifact is never a verdict. */
bool
loadJson(const std::string &path, mxl::Json *out)
{
    struct stat st;
    std::string why;
    if (::stat(path.c_str(), &st) != 0) {
        why = std::strerror(errno);
    } else if (!S_ISREG(st.st_mode)) {
        why = "not a regular file (expected a BENCH_*.json artifact)";
    } else {
        std::ifstream in(path, std::ios::binary);
        const std::string body{std::istreambuf_iterator<char>(in), {}};
        if (!in.is_open())
            why = std::string("cannot open: ") + std::strerror(errno);
        else if (body.find_first_not_of(" \t\r\n") == std::string::npos)
            why = "is empty (did the bench run finish?)";
        else if (!mxl::Json::parse(body, out))
            why = "not valid JSON (truncated or not a BENCH_*.json)";
    }
    if (!why.empty())
        std::fprintf(stderr, "bench_diff: %s: %s\n", path.c_str(),
                     why.c_str());
    return why.empty();
}

} // namespace

int
main(int argc, char **argv)
{
    std::optional<double> thresholdPct;
    std::vector<std::string> paths;
    bool bad = false;
    for (int i = 1; i < argc && !bad; ++i) {
        const std::string arg = argv[i];
        if (arg == "--threshold" && i + 1 < argc) {
            char *end = nullptr;
            thresholdPct = std::strtod(argv[++i], &end);
            bad = end == argv[i] || *end != '\0' ||
                  !std::isfinite(*thresholdPct) || *thresholdPct < 0;
        } else {
            bad = arg.rfind("-", 0) == 0 || paths.size() == 2;
            paths.push_back(arg);
        }
    }
    if (bad || paths.size() != 2) {
        std::fprintf(stderr, "usage: bench_diff [--threshold PCT] "
                             "BEFORE.json AFTER.json\n");
        return 2;
    }
    mxl::Json before, after;
    if (!loadJson(paths[0], &before) || !loadJson(paths[1], &after))
        return 2;
    const mxl::GateVerdict v =
        mxl::evaluateGates(before, after, thresholdPct, paths[0], paths[1]);
    std::fputs(v.report.c_str(), stdout);
    if (v.exitCode == 2)
        std::fprintf(stderr, "bench_diff: %s\n", v.error.c_str());
    return v.exitCode;
}
