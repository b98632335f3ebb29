# A bare --trace on `pbw-campaign run` writes trace.jsonl, the default
# `--help` promises, and no file named after the flag's implicit value
# ("true").  Runs a tiny grid spec in its own scratch directory.
#
#   cmake -DCAMPAIGN=<pbw-campaign> -DDIR=<scratch dir> \
#         -P trace_flag_default.cmake
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
execute_process(COMMAND "${CAMPAIGN}" run tiny.spec --trace --quiet
  WORKING_DIRECTORY "${DIR}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "pbw-campaign run tiny.spec --trace exited ${rc}")
endif()
if(NOT EXISTS "${DIR}/trace.jsonl")
  message(FATAL_ERROR "a bare --trace wrote no trace.jsonl")
endif()
if(EXISTS "${DIR}/true")
  message(FATAL_ERROR "a bare --trace wrote a file named `true`")
endif()
