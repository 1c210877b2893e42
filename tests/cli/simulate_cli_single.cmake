# Drives simulate_cli's single-household path end to end: a checked run
# that writes a day of traces and its learned weights, a run that loads
# those weights back, and a spec whose `mi` the MI estimator rejects, which
# must exit 1 before any day runs.
#
#   cmake -DCLI=path/to/simulate_cli -DDIR=scratch/dir \
#         -P simulate_cli_single.cmake
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
set(trace "${DIR}/day.csv")
set(weights "${DIR}/weights.txt")

execute_process(
  COMMAND "${CLI}" --train 2 --eval 2 --check-invariants
          --trace-out "${trace}" --save-weights "${weights}"
  RESULT_VARIABLE status
  OUTPUT_QUIET)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "checked run exited with status ${status}")
endif()
foreach(file IN ITEMS "${trace}" "${weights}")
  if(NOT EXISTS "${file}")
    message(FATAL_ERROR "checked run wrote no ${file}")
  endif()
endforeach()

execute_process(
  COMMAND "${CLI}" --train 0 --eval 1 --load-weights "${weights}"
  RESULT_VARIABLE status
  OUTPUT_QUIET)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "--load-weights run exited with status ${status}")
endif()

execute_process(
  COMMAND "${CLI}" --scenario "policy=mdp;mi=17"
  RESULT_VARIABLE status
  OUTPUT_QUIET ERROR_VARIABLE error)
if(NOT status EQUAL 1)
  message(FATAL_ERROR "mi=17 ended with status '${status}', want 1")
endif()
if(NOT error MATCHES "need <= 16 levels")
  message(FATAL_ERROR "mi=17 failed without the estimator's error: ${error}")
endif()
message(STATUS "simulate_cli single-household path ok")
