# Pinned-line check: runs PROGRAM with ARGS (one space-separated string) and
# fails unless its exit status is 0 and its stdout matches the regular
# expression EXPECT. For outputs whose other lines carry raw addresses or
# source paths and so cannot be compared byte for byte.
#
#   cmake -DPROGRAM=<exe> "-DARGS=<a b>" "-DEXPECT=<regex>"
#         -P expect_stdout.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${PROGRAM} ${args}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} ${ARGS} exited with ${status}")
endif()
if(NOT actual MATCHES "${EXPECT}")
  message(FATAL_ERROR
          "stdout of ${PROGRAM} ${ARGS} does not match '${EXPECT}':\n"
          "${actual}")
endif()
