# Runs CMD with the single argument ARG and fails unless it exits with
# EXPECT_RC and its stdout/stderr match EXPECT_REGEX. Used by CTest cases that
# check a CLI rejects bad input cleanly instead of aborting:
#   cmake -DCMD=<exe> -DARG=<arg> -DEXPECT_RC=1 -DEXPECT_REGEX=<re>
#         -P expect_exit.cmake
execute_process(COMMAND "${CMD}" "${ARG}" RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL EXPECT_RC)
  message(FATAL_ERROR "${CMD} ${ARG}: exit ${rc}, expected ${EXPECT_RC}\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${EXPECT_REGEX}")
  message(FATAL_ERROR "${CMD} ${ARG}: output does not match '${EXPECT_REGEX}'\n${out}${err}")
endif()
