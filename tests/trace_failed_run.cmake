# A run that throws still writes the runs of the jobs that finished: the
# first block's job succeeds, the second names an unknown model and
# fails the run (exit 1).  The --trace file must hold the first job's
# run, and --trace-dir its stream.
#
#   cmake -DCAMPAIGN=<pbw-campaign> -DDIR=<scratch dir> \
#         -P trace_failed_run.cmake
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
file(WRITE "${DIR}/fails.spec" "[sweep]
scenario = grid.pattern
pattern = ring
p = 16
h = 2
rounds = 2
model = bsp-g
seeds = 1

[sweep]
scenario = grid.pattern
pattern = ring
p = 16
h = 2
rounds = 2
model = nope
seeds = 1
")
execute_process(
  COMMAND "${CAMPAIGN}" run fails.spec --threads=1 --trace=t.jsonl
    --trace-dir=td --quiet
  WORKING_DIRECTORY "${DIR}" RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR NOT err MATCHES "unknown model 'nope'")
  message(FATAL_ERROR "run fails.spec exited ${rc}: ${err}")
endif()
file(STRINGS "${DIR}/t.jsonl" lines REGEX "\"type\":\"run\"")
list(LENGTH lines runs)
if(NOT runs EQUAL 1 OR NOT lines MATCHES "BSP\\(g=")
  message(FATAL_ERROR "t.jsonl holds ${runs} runs: ${lines}")
endif()
file(GLOB streams "${DIR}/td/*.jsonl")
list(LENGTH streams stream_count)
if(NOT stream_count EQUAL 1 OR NOT streams MATCHES "model_bsp-g")
  message(FATAL_ERROR "td/ holds ${stream_count} streams: ${streams}")
endif()
