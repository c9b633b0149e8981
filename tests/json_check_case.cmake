# One bench_json_check case: runs the checker on committed input files and
# requires both its exit code and a line of its output.
#
# Usage:
#   cmake -DCHECK=<bench_json_check> -DARGS=<arg>|<arg>|... -DEXPECT=<code>
#         -DMATCH=<regex> -P json_check_case.cmake
#
# ARGS separates the checker's arguments with '|' (a ';' would split the
# -D value on its way through add_test). EXPECT is 0 for a passing file or
# gate, 1 for a schema violation or a regression; MATCH must occur in the
# combined stdout and stderr.

foreach(var CHECK ARGS EXPECT MATCH)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}")
  endif()
endforeach()

string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND ${CHECK} ${args}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL EXPECT)
  message(FATAL_ERROR "bench_json_check ${args}: exit ${rc}, want ${EXPECT}\n"
                      "${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${MATCH}")
  message(FATAL_ERROR "bench_json_check ${args}: output lacks '${MATCH}'\n"
                      "${out}${err}")
endif()
