# Pins the JSONL bytes run_sweep's grid-flag mode writes to stdout: each
# line of the golden file is "<sha256> <run_sweep arguments>"; the script
# runs run_sweep with those arguments plus --workers 2 and compares the
# SHA-256 of its stdout against the committed digest. The digests were
# recorded once and are never regenerated: a mismatch means the flag
# path's records changed.
#
# Usage:
#   cmake -DSWEEP=<run_sweep> -DGOLDEN=<file> -DWORK=<dir>
#         -P flag_digests.cmake

foreach(var SWEEP GOLDEN WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}")
  endif()
endforeach()

file(STRINGS ${GOLDEN} cases)
if(NOT cases)
  message(FATAL_ERROR "no cases in ${GOLDEN}")
endif()
set(n 0)
foreach(case IN LISTS cases)
  string(REGEX MATCH "^([0-9a-f]+) (.*)$" ok "${case}")
  if(NOT ok)
    message(FATAL_ERROR "malformed golden line: ${case}")
  endif()
  set(expect ${CMAKE_MATCH_1})
  separate_arguments(args UNIX_COMMAND "${CMAKE_MATCH_2}")
  math(EXPR n "${n} + 1")
  set(stdout ${WORK}/flag_digest_${n}.jsonl)
  execute_process(COMMAND ${SWEEP} ${args} --workers 2
    RESULT_VARIABLE rc OUTPUT_FILE ${stdout} ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "run_sweep ${args} exited '${rc}'\n${err}")
  endif()
  file(SHA256 ${stdout} got)
  if(NOT got STREQUAL expect)
    message(FATAL_ERROR
      "run_sweep ${args}: stdout sha256 ${got}, committed ${expect}")
  endif()
endforeach()
message(STATUS "flag digests ok: ${n} invocations")
