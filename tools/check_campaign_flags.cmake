# Runs ttdc-campaign with malformed, out-of-range, missing or removed flag
# values and expects every invocation to exit 2 with a message naming the
# flag, before any cell runs.
#
#   cmake -DCAMPAIGN=<path to ttdc-campaign> -P tools/check_campaign_flags.cmake
if(NOT CAMPAIGN)
  message(FATAL_ERROR "pass -DCAMPAIGN=<path to ttdc-campaign>")
endif()

# One invocation per entry, arguments separated by '|'.
set(cases
  "--slots|5x"
  "--slots|-1"
  "--slots|0"
  "--slots|99999999999999999999999"
  "--cells|abc"
  "--cells|0"
  "--rows|1001"
  "--cols|1.5"
  "--seed|12z"
  "--workers|abc"
  "--workers|-2"
  "--workers|4096"
  "--max-attempts|-1"
  "--max-attempts|0"
  "--rate|1.5"
  "--rate|nan"
  "--rate| 0.1"
  "--fault-intensity|2"
  "--fault-intensity|-0.1"
  "--cell-timeout|-3"
  "--cell-timeout|inf"
  "--cell-timeout|1s"
  "--shard-workers|2"
  "--hybrid"
  "--slots")

set(failures 0)
foreach(case IN LISTS cases)
  string(REPLACE "|" ";" args "${case}")
  list(GET args 0 flag)
  execute_process(COMMAND "${CAMPAIGN}" ${args}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(FIND "${err}" "${flag}" named)
  if(NOT rc EQUAL 2 OR named EQUAL -1)
    message(SEND_ERROR "ttdc-campaign ${case}: exit ${rc}, stderr: ${err}")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()
list(LENGTH cases total)
message(STATUS "${total} bad invocations checked, ${failures} accepted or unnamed")
