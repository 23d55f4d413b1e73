# Runs a command and fails unless it exits with the expected code and, when
# given, its stderr matches a regex. Arguments of CMD are separated by '|':
#   cmake -DCMD="tool|arg|--flag|value" -DEXPECT_EXIT=2
#         [-DEXPECT_STDERR=regex] -P expect_exit.cmake
string(REPLACE "|" ";" command "${CMD}")
execute_process(COMMAND ${command} RESULT_VARIABLE code
                OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "exit ${code}, expected ${EXPECT_EXIT}: ${CMD}\n${err}")
endif()
if(EXPECT_STDERR AND NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_STDERR}':\n${err}")
endif()
