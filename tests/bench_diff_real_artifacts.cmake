# Runs real benches in a scratch directory and requires
# `bench_diff F F` to exit 0 on each fresh BENCH_*.json: a bench whose
# declared gate paths drift from the fields it writes fails here, where
# the hand-written fixtures of bench_diff_gates.cmake cannot notice.
#
#   cmake -DBENCH_DIFF=<bench_diff> -DTABLE3=<bench_table3>
#         -DCHECKELIM=<bench_checkelim> -P bench_diff_real_artifacts.cmake

foreach(var BENCH_DIFF TABLE3 CHECKELIM)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "pass -D${var}=<path>")
  endif()
endforeach()

set(w "${CMAKE_CURRENT_BINARY_DIR}/bench_diff_real_artifacts.tmp")
file(REMOVE_RECURSE "${w}")
file(MAKE_DIRECTORY "${w}")

foreach(bench IN ITEMS "${TABLE3}" "${CHECKELIM}")
  get_filename_component(name "${bench}" NAME)
  string(REGEX REPLACE "^bench_" "" name "${name}")
  execute_process(COMMAND "${bench}" WORKING_DIRECTORY "${w}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_${name} exited ${rc}:\n${out}${err}")
  endif()
  set(artifact "${w}/BENCH_${name}.json")
  execute_process(COMMAND "${BENCH_DIFF}" "${artifact}" "${artifact}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "bench_diff BENCH_${name}.json against itself exited ${rc}:\n"
            "${out}${err}")
  endif()
  message(STATUS "PASS  BENCH_${name}.json self-diffs clean")
endforeach()

file(REMOVE_RECURSE "${w}")
