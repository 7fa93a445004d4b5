# Run a command and require both its exit code and a pattern in its output:
#
#   cmake -DEXPECT_CODE=2 -DEXPECT_REGEX=<regex> -P expect_exit.cmake -- CMD ARGS...
#
# ctest's PASS_REGULAR_EXPRESSION ignores the exit code, and WILL_FAIL
# accepts any nonzero one; the CLI's exit-code contract (2 = usage error)
# needs both checked at once.
set(cmd)
set(seen_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(seen_separator)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(seen_separator TRUE)
  endif()
endforeach()
if(NOT cmd)
  message(FATAL_ERROR "expect_exit.cmake: no command after --")
endif()
execute_process(COMMAND ${cmd} RESULT_VARIABLE code OUTPUT_VARIABLE out
                ERROR_VARIABLE out)
if(NOT code STREQUAL "${EXPECT_CODE}")
  message(FATAL_ERROR "exit code ${code}, expected ${EXPECT_CODE}\n${out}")
endif()
if(NOT out MATCHES "${EXPECT_REGEX}")
  message(FATAL_ERROR "output does not match '${EXPECT_REGEX}':\n${out}")
endif()
