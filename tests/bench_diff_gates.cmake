# Exit-code and verdict table for bench_diff, the one loop over the
# gates a BENCH_*.json export declares (obs/bench_gate.h):
#   exit 0  — every gate BEFORE declares passed on AFTER
#   exit 1  — a gate regressed, or a gated row is missing or failed in
#             AFTER
#   exit 2  — usage or input error: an unreadable artifact (each failure
#             mode diagnosed distinctly), a document without gates, a
#             gate selecting no rows on either side, an unreadable
#             BEFORE value, a bad --threshold or an unknown flag
#
# Each fixture carries the gate records its producing bench writes for
# the data it holds. ctest can assert PASS/FAIL but not specific exit
# codes, so this runs as a -P script, one section of the table at a
# time (ctest runs each section as its own test, bench_diff_<section>):
#   cmake -DBENCH_DIFF=<path-to-binary> -DSECTION=<section> \
#         -P bench_diff_gates.cmake
# Sections: error_paths (loading and usage), gates (grid cycles,
# coverage, backend pairs, lint), latency_error_paths, checks_gate.

if(NOT DEFINED BENCH_DIFF)
  message(FATAL_ERROR "pass -DBENCH_DIFF=<path to bench_diff>")
endif()
if(NOT DEFINED SECTION)
  message(FATAL_ERROR "pass -DSECTION=<section of the case table>")
endif()

set(w "${CMAKE_CURRENT_BINARY_DIR}/bench_diff_${SECTION}.tmp")
file(REMOVE_RECURSE "${w}")
file(MAKE_DIRECTORY "${w}")
file(MAKE_DIRECTORY "${w}/a_directory")
file(WRITE "${w}/empty.json" "")
file(WRITE "${w}/garbage.json" "this is { not json")

# ---- gate records, as the benches declare them
set(cycles [=["gates": [{"name": "cycles", "rows": "grid", "key": "label", "value": "stats.total", "kind": "lower", "threshold": 0}]]=])
set(latency [=["gates": [
  {"name": "p95 latency", "rows": "metrics.histograms", "key": "serve.*_micros", "value": "p95", "kind": "percentile", "threshold": 0, "floor": 100},
  {"name": "p99 latency", "rows": "metrics.histograms", "key": "serve.*_micros", "value": "p99", "kind": "percentile", "threshold": 0, "floor": 100}]]=])
set(checks [=["gates": [
  {"name": "placeCycles", "rows": "grid", "key": "program", "value": "placeCycles", "kind": "lower", "threshold": 1},
  {"name": "provenChecks", "rows": "grid", "key": "program", "value": "provenChecks", "kind": "higher"},
  {"name": "verifierAccepts", "rows": "grid", "key": "program", "value": "verifierAccepts", "kind": "higher"}]]=])
set(coverage [=["gates": [{"name": "coverage", "rows": "matrix", "key": "config,class", "value": "coverage", "kind": "wilson"}]]=])
set(backends [=["gates": [{"name": "backend cycles", "rows": "backends", "key": "label", "value": "interpreter,translated", "kind": "exact"}]]=])
set(lint [=["gates": [{"name": "lint errors", "rows": "metrics.counters", "key": "mxlint.*.errors", "value": "", "kind": "lower"}]]=])

# ---- grid exports (every gridJson bench)
function(cell label total ok out)
  set(${out} "{\"label\": \"${label}\", \"statusOk\": ${ok}, \"stats\": {\"total\": ${total}}, \"wallSeconds\": 0.5}" PARENT_SCOPE)
endfunction()
cell(x 100 true x_ok)
cell(y 200 true y_ok)
cell(x 100 false x_failed)
cell(y 200 false y_failed)
file(WRITE "${w}/valid.json" "{\"grid\": [${x_ok}], ${cycles}}")
file(WRITE "${w}/two.json" "{\"grid\": [${x_ok}, ${y_ok}], ${cycles}}")
file(WRITE "${w}/one_failed.json" "{\"grid\": [${x_ok}, ${y_failed}], ${cycles}}")
file(WRITE "${w}/all_failed.json" "{\"grid\": [${x_failed}, ${y_failed}], ${cycles}}")
file(WRITE "${w}/empty_grid.json" [=[{"grid": []}]=])

# ---- service latency histograms (bench_serve). base: p95/p99 land in
# the 8192-lower-bound bucket, clamped to the observed max of 9000us.
file(WRITE "${w}/base.json" "{\"metrics\": {\"histograms\": {
  \"serve.e2e_micros\": {\"count\": 100, \"sum\": 500000, \"max\": 9000,
                       \"buckets\": {\"1024\": 90, \"8192\": 10}},
  \"serve.exec_micros\": {\"count\": 100, \"sum\": 400000, \"max\": 7000,
                        \"buckets\": {\"1024\": 95, \"4096\": 5}}}}, ${latency}}")
# The same shape with tail latency blown out ~200x.
file(WRITE "${w}/regressed.json" "{\"metrics\": {\"histograms\": {
  \"serve.e2e_micros\": {\"count\": 100, \"sum\": 99000000, \"max\": 2000000,
                       \"buckets\": {\"1048576\": 100}},
  \"serve.exec_micros\": {\"count\": 100, \"sum\": 400000, \"max\": 7000,
                        \"buckets\": {\"1024\": 95, \"4096\": 5}}}}, ${latency}}")
# serve.e2e_micros vanished.
file(WRITE "${w}/no_e2e.json" "{\"metrics\": {\"histograms\": {
  \"serve.exec_micros\": {\"count\": 100, \"sum\": 400000, \"max\": 7000,
                        \"buckets\": {\"1024\": 95, \"4096\": 5}}}}, ${latency}}")
# Valid JSON that declares no gates.
file(WRITE "${w}/no_metrics.json" [=[
{"grid": [{"label": "x", "statusOk": true}]}
]=])
# metrics.histograms present but none of the serve.*_micros names.
file(WRITE "${w}/no_serve_hists.json" "{\"metrics\": {\"histograms\": {\"engine.run_micros\":
  {\"count\": 5, \"sum\": 50, \"max\": 20, \"buckets\": {\"16\": 5}}}}, ${latency}}")
# Two malformed-entry shapes.
file(WRITE "${w}/bad_count.json" "{\"metrics\": {\"histograms\": {\"serve.e2e_micros\":
  {\"count\": \"nope\", \"buckets\": {}}}}, ${latency}}")
file(WRITE "${w}/bad_bucket_key.json" "{\"metrics\": {\"histograms\": {\"serve.e2e_micros\":
  {\"count\": 1, \"max\": 3, \"buckets\": {\"abc\": 1}}}}, ${latency}}")

# ---- check-placement ladder (bench_checkelim), two programs
function(write_checks path p1_proven p1_cycles p1_ver p2_proven p2_cycles)
  file(WRITE "${path}"
       "{\"grid\": ["
       "{\"program\": \"alpha\", \"label\": \"alpha\", "
       "\"stats\": {\"total\": ${p1_cycles}}, "
       "\"provenChecks\": ${p1_proven}, "
       "\"placeCycles\": ${p1_cycles}, "
       "\"verifierAccepts\": ${p1_ver}}, "
       "{\"program\": \"beta\", \"label\": \"beta\", "
       "\"stats\": {\"total\": ${p2_cycles}}, "
       "\"provenChecks\": ${p2_proven}, "
       "\"placeCycles\": ${p2_cycles}, "
       "\"verifierAccepts\": true}"
       "], ${checks}}")
endfunction()
write_checks("${w}/before.json"      150 1000000 true  80 2000000)
write_checks("${w}/same.json"        150 1000000 true  80 2000000)
# +0.5% cycles: inside the declared 1% tolerance.
write_checks("${w}/jitter.json"      150 1005000 true  80 2000000)
# +2% cycles on alpha: a real place-cycle regression.
write_checks("${w}/slower.json"      150 1020000 true  80 2000000)
# alpha proves fewer checks than before.
write_checks("${w}/fewer.json"       140 1000000 true  80 2000000)
# alpha's transformed unit no longer verifies.
write_checks("${w}/unverified.json"  150 1000000 false 80 2000000)
# beta vanished.
file(WRITE "${w}/missing_program.json"
     "{\"grid\": [{\"program\": \"alpha\", \"provenChecks\": 150, "
     "\"placeCycles\": 1000000, \"verifierAccepts\": true}], ${checks}}")
# A grid from another harness that declares no gates (and no program
# rows).
file(WRITE "${w}/other_bench.json"
     "{\"grid\": [{\"label\": \"x\", \"stats\": {\"total\": 100}}]}")

# ---- detection coverage matrix (bench_faults)
set(tag_cell [=[{"config": "checked", "class": "tag-corrupt", "detected": 17, "total": 30, "skipped": 0, "coverage": 0.5667, "ci_lo": 0.39, "ci_hi": 0.73}]=])
set(flip_cell [=[{"config": "checked", "class": "bit-flip", "detected": 3, "total": 30, "skipped": 0, "coverage": 0.1, "ci_lo": 0.03, "ci_hi": 0.26}]=])
file(WRITE "${w}/coverage.json" "{\"matrix\": [${tag_cell}, ${flip_cell}], ${coverage}}")
file(WRITE "${w}/coverage_vanished.json" "{\"matrix\": [${tag_cell}], ${coverage}}")

# ---- backend pairs (bench_backend, bench_simulator)
file(WRITE "${w}/pairs.json" "{\"backends\": [{\"label\": \"fib\", \"interpreter\": 10, \"translated\": 10}], ${backends}}")
file(WRITE "${w}/pairs_diverged.json" "{\"backends\": [{\"label\": \"fib\", \"interpreter\": 10, \"translated\": 11}], ${backends}}")
file(WRITE "${w}/pairs_one_side.json" "{\"backends\": [{\"label\": \"fib\", \"interpreter\": 10}], ${backends}}")

# ---- static-verifier error counters (bench_checkelim's metrics)
file(WRITE "${w}/lint.json" "{\"metrics\": {\"counters\": {\"engine.runs\": 3, \"mxlint.alpha.errors\": 0}}, ${lint}}")
file(WRITE "${w}/lint_up.json" "{\"metrics\": {\"counters\": {\"engine.runs\": 3, \"mxlint.alpha.errors\": 2}}, ${lint}}")

set(failures 0)
set(cases_run 0)

# The cases after section(<name>) run only when SECTION is <name>.
macro(section name)
  set(current_section ${name})
endmacro()

# expect_case(<name> <expected-rc> <output-regex> <args...>)
function(expect_case name expected_rc expected_text)
  if(NOT current_section STREQUAL SECTION)
    return()
  endif()
  math(EXPR n "${cases_run} + 1")
  set(cases_run ${n} PARENT_SCOPE)
  execute_process(
    COMMAND "${BENCH_DIFF}" ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  set(ok TRUE)
  if(NOT rc EQUAL ${expected_rc})
    set(ok FALSE)
    message(WARNING "${name}: exit ${rc}, expected ${expected_rc}")
  endif()
  if(NOT "${expected_text}" STREQUAL "" AND
     NOT "${err}${out}" MATCHES "${expected_text}")
    set(ok FALSE)
    message(WARNING "${name}: output missing \"${expected_text}\";\n"
                    "output was: ${err}${out}")
  endif()
  if(ok)
    message(STATUS "PASS  ${name}")
  else()
    math(EXPR n "${failures} + 1")
    set(failures ${n} PARENT_SCOPE)
  endif()
endfunction()

set(missing "${w}/does_not_exist.json")

section(error_paths)
# Artifact loading: every failure mode exits 2, distinctly diagnosed.
expect_case(default_missing_before 2 "does_not_exist" "${missing}" "${w}/valid.json")
expect_case(default_missing_after 2 "does_not_exist" "${w}/valid.json" "${missing}")
expect_case(default_directory 2 "not a regular file" "${w}/a_directory" "${w}/valid.json")
expect_case(default_empty 2 "is empty" "${w}/empty.json" "${w}/valid.json")
expect_case(default_garbage 2 "not valid JSON" "${w}/garbage.json" "${w}/valid.json")

# Usage: two paths, one option; the deleted mode flags are unknown.
expect_case(no_arguments 2 "usage")
expect_case(too_many_paths 2 "usage" a b c)
expect_case(latency_one_path 2 "usage" "${w}/base.json")
expect_case(latency_with_coverage 2 "usage" --latency --coverage "${w}/base.json" "${w}/base.json")
expect_case(latency_with_backends 2 "usage" --latency --backends "${w}/base.json")
expect_case(checks_and_coverage 2 "usage" --checks --coverage "${w}/before.json" "${w}/before.json")
expect_case(threshold_nan 2 "usage" --threshold nan "${w}/base.json" "${w}/regressed.json")
expect_case(threshold_negative 2 "usage" --threshold -1 "${w}/valid.json" "${w}/valid.json")
expect_case(threshold_inf 2 "usage" --threshold inf "${w}/two.json" "${w}/all_failed.json")

section(gates)
# Grid cycles (lower, 0% unless overridden).
expect_case(valid_self_diff 0 "PASS" "${w}/valid.json" "${w}/valid.json")
expect_case(grid_cell_failed 1 "failed in" "${w}/two.json" "${w}/one_failed.json")
expect_case(grid_all_failed 1 "2 of 2 row" "${w}/two.json" "${w}/all_failed.json")
expect_case(grid_no_rows 2 "selects no rows" "${w}/valid.json" "${w}/empty_grid.json")

section(latency_error_paths)
# Service latency (percentile over the raw buckets).
expect_case(latency_self_diff 0 "PASS" "${w}/base.json" "${w}/base.json")
expect_case(latency_regression 1 "FAIL" --threshold 50 "${w}/base.json" "${w}/regressed.json")
expect_case(latency_huge_threshold 0 "PASS" --threshold 10000000 "${w}/base.json" "${w}/regressed.json")
expect_case(latency_e2e_missing 1 "missing in" "${w}/base.json" "${w}/no_e2e.json")
expect_case(latency_no_metrics 2 "declares no gates" "${w}/no_metrics.json" "${w}/base.json")
expect_case(latency_no_serve_hists 2 "selects no rows" "${w}/no_serve_hists.json" "${w}/base.json")
expect_case(latency_bad_count 2 "no readable p95" "${w}/bad_count.json" "${w}/base.json")
expect_case(latency_bad_bucket_key 2 "no readable p95" "${w}/bad_bucket_key.json" "${w}/base.json")

section(checks_gate)
# Check placement (lower place cycles at 1%; higher proven checks and
# verifier acceptance, strict).
expect_case(checks_self_diff 0 "PASS" "${w}/before.json" "${w}/same.json")
expect_case(checks_jitter_within_threshold 0 "PASS" "${w}/before.json" "${w}/jitter.json")
expect_case(checks_cycle_regression 1 "FAIL  placeCycles" "${w}/before.json" "${w}/slower.json")
expect_case(checks_proven_regression 1 "FAIL  provenChecks" "${w}/before.json" "${w}/fewer.json")
expect_case(checks_verifier_rejection 1 "FAIL  verifierAccepts" "${w}/before.json" "${w}/unverified.json")
expect_case(checks_tight_threshold 1 "FAIL  placeCycles" --threshold 0.1 "${w}/before.json" "${w}/jitter.json")
expect_case(checks_loose_threshold 0 "PASS" --threshold 5 "${w}/before.json" "${w}/slower.json")
expect_case(checks_program_missing 1 "missing in" "${w}/before.json" "${w}/missing_program.json")
expect_case(checks_proven_strict 1 "FAIL  provenChecks" --threshold 10000000 "${w}/before.json" "${w}/fewer.json")
expect_case(checks_verifier_strict 1 "FAIL  verifierAccepts" --threshold 10000000 "${w}/before.json" "${w}/unverified.json")
expect_case(checks_wrong_bench 2 "declares no gates" "${w}/other_bench.json" "${w}/before.json")
expect_case(checks_wrong_bench_after 2 "selects no rows" "${w}/before.json" "${w}/other_bench.json")

section(gates)
# Detection coverage (wilson), backend equality (exact), lint errors
# (lower, strict): no --threshold loosens them.
expect_case(coverage_self_diff 0 "PASS" "${w}/coverage.json" "${w}/coverage.json")
expect_case(coverage_cell_vanished 1 "missing in" --threshold 10000000 "${w}/coverage.json" "${w}/coverage_vanished.json")
expect_case(backends_self_diff 0 "PASS" "${w}/pairs.json" "${w}/pairs.json")
expect_case(backends_diverged 1 "10 != 11" --threshold 10000000 "${w}/pairs_diverged.json" "${w}/pairs_diverged.json")
expect_case(backends_one_side 1 "no readable interpreter,translated" "${w}/pairs_one_side.json" "${w}/pairs_one_side.json")
expect_case(lint_increase_strict 1 "FAIL  lint errors" --threshold 10000000 "${w}/lint.json" "${w}/lint_up.json")

file(REMOVE_RECURSE "${w}")

if(cases_run EQUAL 0)
  message(FATAL_ERROR "no bench_diff case in section '${SECTION}'")
endif()
if(failures GREATER 0)
  message(FATAL_ERROR "${failures} bench_diff ${SECTION} case(s) failed")
endif()
message(STATUS "all ${cases_run} bench_diff ${SECTION} cases passed")
