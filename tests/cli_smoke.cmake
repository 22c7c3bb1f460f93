# Run one command-line tool with one argument and check how it exits:
#
#   cmake -DTOOL=<binary> -DARG=<argument> -DEXIT=<code>
#         -DMATCH=<regex> -P cli_smoke.cmake
#
# Fails unless the tool exits with EXIT and its stdout+stderr match
# MATCH.
execute_process(COMMAND "${TOOL}" "${ARG}"
                RESULT_VARIABLE code
                OUTPUT_VARIABLE output
                ERROR_VARIABLE output
                TIMEOUT 60)
if(NOT code STREQUAL EXIT)
    message(FATAL_ERROR
        "${TOOL} ${ARG}: exit ${code}, expected ${EXIT}\n${output}")
endif()
if(NOT output MATCHES "${MATCH}")
    message(FATAL_ERROR
        "${TOOL} ${ARG}: output does not match '${MATCH}'\n${output}")
endif()
