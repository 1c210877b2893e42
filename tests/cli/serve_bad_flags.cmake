# Runs `rlblh_serve` and `load_gen` with malformed numeric flags and
# requires each to be refused with the usage exit code 2: a "-1" must not
# wrap into a huge count, a "2x" must not truncate to 2. Every other
# argument is valid, so a daemon that accepted the flag would start serving
# and run into the timeout instead.
#
#   cmake -DSERVE=path/to/rlblh_serve -DLOAD_GEN=path/to/load_gen \
#         -DDIR=scratch/dir -P serve_bad_flags.cmake
set(serve_args --checkpoint-dir "${DIR}" --listen "unix:${DIR}/sock")
set(load_gen_args --endpoint "unix:${DIR}/sock")
set(cases
  "SERVE|--shards|-1"
  "SERVE|--shards|257"
  "SERVE|--checkpoint-period|2x"
  "SERVE|--checkpoint-period|0"
  "LOAD_GEN|--households|-1"
  "LOAD_GEN|--days| 3")
foreach(case IN LISTS cases)
  string(REPLACE "|" ";" fields "${case}")
  list(GET fields 0 tool)
  list(GET fields 1 flag)
  list(GET fields 2 value)
  if(tool STREQUAL "SERVE")
    set(command "${SERVE}" ${serve_args})
  else()
    set(command "${LOAD_GEN}" ${load_gen_args})
  endif()
  execute_process(
    COMMAND ${command} "${flag}" "${value}"
    RESULT_VARIABLE status
    OUTPUT_QUIET ERROR_QUIET
    TIMEOUT 10)
  if(NOT status STREQUAL "2")
    message(FATAL_ERROR "${tool} ${flag} '${value}' ended with '${status}', "
                        "want 2")
  endif()
endforeach()
message(STATUS "every malformed numeric flag was refused with exit 2")
