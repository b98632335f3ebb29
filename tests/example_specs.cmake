# Checks the campaign specs under examples/campaigns against the registry.
#
#   cmake -DCAMPAIGN=<pbw-campaign> -DSPECS=<spec dir> -DDIR=<scratch dir> \
#         -P example_specs.cmake
#       `run --dry-run` on every *.spec: each must expand, exit 0.
#   cmake -DCAMPAIGN=<pbw-campaign> -DSPEC=<spec> -DDIR=<scratch dir> \
#         -P example_specs.cmake
#       runs the spec and fails unless every row that reports `correct`
#       has correct.min >= 1.
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")

if(DEFINED SPECS)
  file(GLOB specs "${SPECS}/*.spec")
  if(NOT specs)
    message(FATAL_ERROR "no *.spec files under ${SPECS}")
  endif()
  foreach(spec IN LISTS specs)
    execute_process(COMMAND "${CAMPAIGN}" run "${spec}" --dry-run
      WORKING_DIRECTORY "${DIR}" RESULT_VARIABLE rc
      OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "run ${spec} --dry-run exited ${rc}:\n${err}")
    endif()
    string(REGEX MATCH "([0-9]+) jobs\n$" count "${out}")
    message(STATUS "${spec}: ${CMAKE_MATCH_1} jobs")
  endforeach()
  return()
endif()

execute_process(COMMAND "${CAMPAIGN}" run "${SPEC}" --out=rows.jsonl
    --threads=2 --quiet
  WORKING_DIRECTORY "${DIR}" RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "run ${SPEC} exited ${rc}:\n${err}")
endif()
file(STRINGS "${DIR}/rows.jsonl" rows)
set(checked 0)
set(failed "")
foreach(row IN LISTS rows)
  string(JSON min ERROR_VARIABLE missing GET "${row}" metrics correct min)
  if(missing)
    continue()
  endif()
  math(EXPR checked "${checked} + 1")
  if(min LESS 1)
    string(JSON key GET "${row}" key)
    string(APPEND failed "\n  ${key}: correct.min = ${min}")
  endif()
endforeach()
list(LENGTH rows total)
if(failed)
  message(FATAL_ERROR "rows with correct.min < 1:${failed}")
endif()
if(checked EQUAL 0)
  message(FATAL_ERROR "no row of ${SPEC} reports `correct`")
endif()
message(STATUS "${total} rows, ${checked} report correct = 1")
