/**
 * @file
 * The RunResult equality the backend and fault suites assert.
 */

#ifndef MXLISP_TESTS_SAME_RESULT_H_
#define MXLISP_TESTS_SAME_RESULT_H_

#include <cstring>
#include <type_traits>

#include <gtest/gtest.h>

#include "core/run.h"

namespace mxl {

/**
 * Field-by-field comparison of two runs' results: everything a
 * simulation defines, on either backend. The seam-only fields (profile,
 * paused, timedOut) are owned by the caller's expectations.
 */
inline ::testing::AssertionResult
sameResult(const RunResult &a, const RunResult &b)
{
    static_assert(std::is_trivially_copyable_v<CycleStats>);
    if (std::memcmp(&a.stats, &b.stats, sizeof(CycleStats)) != 0)
        return ::testing::AssertionFailure()
               << "CycleStats differ: total " << a.stats.total << " vs "
               << b.stats.total << ", instructions "
               << a.stats.instructions << " vs " << b.stats.instructions;
    if (a.output != b.output)
        return ::testing::AssertionFailure()
               << "output differs (" << a.output.size() << " vs "
               << b.output.size() << " bytes)";
    if (a.stop != b.stop)
        return ::testing::AssertionFailure()
               << "stop " << int(a.stop) << " vs " << int(b.stop);
    if (a.errorCode != b.errorCode)
        return ::testing::AssertionFailure()
               << "errorCode " << a.errorCode << " vs " << b.errorCode;
    if (a.exitValue != b.exitValue)
        return ::testing::AssertionFailure()
               << "exitValue " << a.exitValue << " vs " << b.exitValue;
    if (a.faultIndex != b.faultIndex)
        return ::testing::AssertionFailure()
               << "faultIndex " << a.faultIndex << " vs " << b.faultIndex;
    if (a.gcCount != b.gcCount || a.heapUsed != b.heapUsed)
        return ::testing::AssertionFailure()
               << "GC cells differ: " << a.gcCount << "/" << a.heapUsed
               << " vs " << b.gcCount << "/" << b.heapUsed;
    return ::testing::AssertionSuccess();
}

} // namespace mxl

#endif // MXLISP_TESTS_SAME_RESULT_H_
