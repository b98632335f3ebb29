# The --trace file lists jobs in spec order, so it does not depend on
# which thread finished first: the same spec at --threads=1 and
# --threads=4, each with a fresh --out, must write byte-identical trace
# JSONL.  The spec mixes long and short groups, and its cost-only axes
# (g and L under bsp-m) put each group's members apart in the spec.
#
#   cmake -DCAMPAIGN=<pbw-campaign> -DDIR=<scratch dir> -P trace_order.cmake
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
file(WRITE "${DIR}/order.spec" "[sweep]
scenario = grid.pattern
pattern = ring, random
p = 512, 64
h = 2
rounds = 2
model = bsp-m
g = 2, 8
L = 4, 16
seeds = 1, 2

[sweep]
scenario = table1.broadcast
family = bsp, qsm
p = 1024, 64
g = 4
L = 16
")
foreach(threads 1 4)
  execute_process(
    COMMAND "${CAMPAIGN}" run order.spec --out=rows${threads}.jsonl
      --threads=${threads} --trace=trace${threads}.jsonl --quiet
    WORKING_DIRECTORY "${DIR}" RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "run order.spec --threads=${threads} exited ${rc}")
  endif()
  file(SHA256 "${DIR}/trace${threads}.jsonl" digest${threads})
endforeach()
if(NOT digest1 STREQUAL digest4)
  message(FATAL_ERROR "--trace differs between --threads=1 and --threads=4")
endif()
