# Runs `simulate_cli --fleet 4 ... --obs-out OUT` and requires OUT to exist
# and to hold non-zero `rl.` counters and a non-zero `fleet.setup_ns`: the
# fleet path must write its run manifest like the single-household path
# does, and time its households' set-up.
#
#   cmake -DCLI=path/to/simulate_cli -DOUT=manifest.json \
#         -P simulate_cli_fleet_obs.cmake
file(REMOVE "${OUT}")
execute_process(
  COMMAND "${CLI}" --fleet 4 --threads 2 --train 2 --eval 1 --obs-out "${OUT}"
  RESULT_VARIABLE status
  OUTPUT_QUIET)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "simulate_cli --fleet exited with status ${status}")
endif()
if(NOT EXISTS "${OUT}")
  message(FATAL_ERROR "simulate_cli --fleet --obs-out wrote no manifest")
endif()
file(READ "${OUT}" manifest)
string(JSON counters ERROR_VARIABLE json_error GET "${manifest}" counters)
if(json_error)
  message(FATAL_ERROR "manifest has no counters object: ${json_error}")
endif()
string(JSON count LENGTH "${counters}")
set(rl_counters 0)
if(count GREATER 0)
  math(EXPR last "${count} - 1")
  foreach(i RANGE ${last})
    string(JSON name MEMBER "${counters}" ${i})
    string(JSON value GET "${counters}" "${name}")
    if(name MATCHES "^rl\\." AND value GREATER 0)
      math(EXPR rl_counters "${rl_counters} + 1")
    endif()
  endforeach()
endif()
if(rl_counters EQUAL 0)
  message(FATAL_ERROR "manifest holds no non-zero rl. counters")
endif()
string(JSON setup_ns ERROR_VARIABLE setup_error
       GET "${counters}" "fleet.setup_ns")
if(setup_error OR NOT setup_ns GREATER 0)
  message(FATAL_ERROR "manifest holds no non-zero fleet.setup_ns counter")
endif()
message(STATUS "fleet manifest ok: ${rl_counters} non-zero rl. counters, "
               "fleet.setup_ns ${setup_ns}")
