# Run CMD with ARGS (one space-separated string) and require a prompt,
# clean rejection: a nonzero exit status (not a signal or a timeout)
# and a diagnostic on stderr that mentions EXPECT.
#
#   cmake -DCMD=prog "-DARGS=--refs -1" -DEXPECT=--refs -P expect_fatal.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CMD}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT 20)
if(NOT rc MATCHES "^[0-9]+$")
    message(FATAL_ERROR "'${CMD} ${ARGS}' did not exit cleanly: ${rc}")
endif()
if(rc EQUAL 0)
    message(FATAL_ERROR "'${CMD} ${ARGS}' was accepted (exit 0)")
endif()
string(FIND "${err}" "${EXPECT}" pos)
if(pos EQUAL -1)
    message(FATAL_ERROR
            "'${CMD} ${ARGS}' failed without naming ${EXPECT}:\n${err}")
endif()
