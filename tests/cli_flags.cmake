# Bad flags exit 2 before a run opens a file or binds a port.
#  * --serve-port=70000 is out of range (it used to wrap to port 4464):
#    no rows file, no "telemetry on" line.
#  * --trace-format without --trace, and a format that is not jsonl,
#    chrome or both: no rows file.
#  * Every flag that became a constant or was deleted is an unknown flag
#    under its old command.
# A --trace path that cannot be written exits 1, after the rows are
# committed.
#
#   cmake -DCAMPAIGN=<pbw-campaign> -DDIR=<scratch dir> -P cli_flags.cmake
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
file(WRITE "${DIR}/tiny.spec" "[sweep]
scenario = grid.pattern
pattern = ring
p = 16
h = 2
rounds = 2
model = bsp-g
seeds = 1
")
execute_process(
  COMMAND "${CAMPAIGN}" run tiny.spec --serve-port=70000 --out=rows.jsonl
  WORKING_DIRECTORY "${DIR}" RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "run --serve-port=70000 exited ${rc}: ${err}")
endif()
if(NOT err MATCHES "--serve-port=70000" OR err MATCHES "telemetry on")
  message(FATAL_ERROR "run --serve-port=70000 said: ${err}")
endif()
if(EXISTS "${DIR}/rows.jsonl")
  message(FATAL_ERROR "run --serve-port=70000 opened its rows file")
endif()

foreach(bad "--trace-format=chrome" "--trace=t.jsonl;--trace-format=xml")
  execute_process(COMMAND "${CAMPAIGN}" run tiny.spec ${bad} --out=rows.jsonl
    WORKING_DIRECTORY "${DIR}" RESULT_VARIABLE rc ERROR_VARIABLE err)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "--trace")
    message(FATAL_ERROR "run ${bad} exited ${rc}: ${err}")
  endif()
  if(EXISTS "${DIR}/rows.jsonl" OR EXISTS "${DIR}/t.jsonl")
    message(FATAL_ERROR "run ${bad} opened a file")
  endif()
endforeach()

execute_process(
  COMMAND "${CAMPAIGN}" run tiny.spec --trace=missing/t.jsonl --out=rows.jsonl
    --quiet
  WORKING_DIRECTORY "${DIR}" RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR NOT err MATCHES "missing/t.jsonl")
  message(FATAL_ERROR "run --trace=missing/t.jsonl exited ${rc}: ${err}")
endif()
file(STRINGS "${DIR}/rows.jsonl" rows)
list(LENGTH rows row_count)
if(NOT row_count EQUAL 1)
  message(FATAL_ERROR "run --trace=missing/t.jsonl committed ${row_count} rows")
endif()
file(REMOVE "${DIR}/rows.jsonl" "${DIR}/rows.jsonl.manifest")

foreach(removed
    "run;tiny.spec;--tape-cache-mb=1" "run;tiny.spec;--stall-seconds=0"
    "run;tiny.spec;--metrics-interval=1" "table1;--tape-cache-mb=1"
    "table1;--stall-seconds=0" "table1;--metrics-interval=1"
    "serve;--max-attempts=1" "serve;--no-replay" "serve;--replay-check"
    "worker;--coordinator=127.0.0.1:1;--max-idle-seconds=1"
    "worker;--coordinator=127.0.0.1:1;--tape-cache-mb=1")
  execute_process(COMMAND "${CAMPAIGN}" ${removed}
    WORKING_DIRECTORY "${DIR}" RESULT_VARIABLE rc ERROR_VARIABLE err)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "unknown flag")
    message(FATAL_ERROR "${removed} exited ${rc}: ${err}")
  endif()
endforeach()
