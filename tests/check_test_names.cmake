# Fails when a discovered ctest name contains gtest's byte dump of a
# parameter ("N-byte object <..>"), whose padding and pointer bytes can
# change from build to build.  DUMP_SUITES are exempt: their parameters
# are padding-free integers and so dump the same bytes in every build
# (each asserts std::has_unique_object_representations).
# Usage: cmake -DCTEST=<ctest> -DBUILD_DIR=<build> -DDUMP_SUITES=<Suite|..>
#              -P this
cmake_minimum_required(VERSION 3.20)
execute_process(COMMAND "${CTEST}" -N WORKING_DIRECTORY "${BUILD_DIR}"
  OUTPUT_VARIABLE names RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ctest -N exited ${rc}")
endif()
string(REGEX MATCHALL "[^\n]*-byte object <[^\n]*" dumps "${names}")
list(FILTER dumps EXCLUDE REGEX "/(${DUMP_SUITES})\\.")
if(dumps)
  string(REPLACE ";" "\n" dumps "${dumps}")
  message(FATAL_ERROR "ctest names with a parameter byte dump:\n${dumps}")
endif()
message(STATUS "no parameter byte dumps in test names outside ${DUMP_SUITES}")
