# A bench given a command line it does not accept must print its usage
# line, exit 2 and write no report. The bench runs in an empty directory
# so that a report it should not have written shows up as results/.
#
#   cmake -DBENCH=<binary> -DNAME=<bench> "-DARGS=<args>" -DDIR=<scratch dir> -P expect_usage.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
execute_process(COMMAND "${BENCH}" ${args} WORKING_DIRECTORY "${DIR}"
                RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "${NAME} ${ARGS}: exit status ${status}, expected 2")
endif()
if(NOT err MATCHES "^usage: ([^ ]*/)?${NAME}")
  message(FATAL_ERROR "${NAME} ${ARGS}: no usage line on stderr: ${err}")
endif()
if(EXISTS "${DIR}/results")
  message(FATAL_ERROR "${NAME} ${ARGS}: wrote results/ for a command line it rejects")
endif()
file(REMOVE_RECURSE "${DIR}")
