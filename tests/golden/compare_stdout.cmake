# Golden-output check: runs PROGRAM with ARGS and fails unless its exit
# status is 0 and its stdout equals the file GOLDEN byte for byte. On a
# mismatch the actual output is written to ACTUAL for diffing.
#
#   cmake -DPROGRAM=<exe> -DARGS=<a;b> -DGOLDEN=<file> -DACTUAL=<file>
#         -P compare_stdout.cmake
execute_process(COMMAND ${PROGRAM} ${ARGS}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} ${ARGS} exited with ${status}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  file(WRITE ${ACTUAL} "${actual}")
  message(FATAL_ERROR
          "stdout of ${PROGRAM} ${ARGS} differs from ${GOLDEN}; "
          "actual output written to ${ACTUAL}")
endif()
