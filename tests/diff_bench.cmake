# Self-test of scripts/diff_bench.py on the fixture directories in
# tests/diff_bench:
#
#   cmake -DPYTHON=<python3> -DSCRIPT=<diff_bench.py> -DDIR=<fixtures>
#         -P diff_bench.cmake
#
# old vs new must exit 1 and print exactly expected.txt (the harness
# file and non-BENCH files skipped); old vs old must exit 0 silently.
execute_process(COMMAND "${PYTHON}" "${SCRIPT}" "${DIR}/old" "${DIR}/new"
                RESULT_VARIABLE code
                OUTPUT_VARIABLE output
                ERROR_VARIABLE errors)
file(READ "${DIR}/expected.txt" expected)
if(NOT code STREQUAL 1 OR NOT output STREQUAL expected)
    message(FATAL_ERROR "old vs new: exit ${code}, expected 1\n"
        "got:\n${output}${errors}\nexpected:\n${expected}")
endif()
execute_process(COMMAND "${PYTHON}" "${SCRIPT}" "${DIR}/old" "${DIR}/old"
                RESULT_VARIABLE code
                OUTPUT_VARIABLE output
                ERROR_VARIABLE errors)
if(NOT code STREQUAL 0 OR NOT output STREQUAL "")
    message(FATAL_ERROR "old vs old: exit ${code}, expected 0 and no "
        "output\n${output}${errors}")
endif()
