# Records a dump with ttdc-trace and expects the recorded stream to rebuild
# the run's live counters and to pass `check`. Then runs ttdc-trace with
# malformed or out-of-range numeric flags and packet ids and expects every
# invocation to exit 2 with a message naming the flag, before any dump is
# read or scenario run.
#
#   cmake -DTRACE=<path to ttdc-trace> -DWORKDIR=<scratch dir>
#         -P tools/check_trace_flags.cmake
if(NOT TRACE OR NOT WORKDIR)
  message(FATAL_ERROR "pass -DTRACE=<path to ttdc-trace> -DWORKDIR=<scratch dir>")
endif()

# A real dump, so a command that ignored a bad flag would have data to print.
# record exits 1 when the unwrapped stream does not rebuild the live SimStats.
file(MAKE_DIRECTORY "${WORKDIR}")
set(dump "${WORKDIR}/flags.jsonl")
execute_process(COMMAND "${TRACE}" record --out "${dump}" --slots 200
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
string(FIND "${out}" "counter check: OK" matched)
if(NOT rc EQUAL 0 OR matched EQUAL -1)
  message(FATAL_ERROR "ttdc-trace record failed (exit ${rc}): ${out}${err}")
endif()
execute_process(COMMAND "${TRACE}" check "${dump}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ttdc-trace check of a recorded dump failed (exit ${rc}): ${out}${err}")
endif()

# One invocation per entry: the name the message must contain, then the
# arguments, separated by '|'; DUMP stands for the dump path.
set(cases
  "<id>|packet|DUMP|12x"
  "<id>|packet|DUMP|-3"
  "<id>|packet|DUMP|99999999999999999999999"
  "--id|packet|DUMP|--id|7.5"
  "--node|timeline|DUMP|--node|-1"
  "--node|timeline|DUMP|--node|4294967295"
  "-k|worst-latency|DUMP|-k|abc"
  "-k|top-collisions|DUMP|-k|0"
  "--slot-us|perfetto|DUMP|--slot-us|-5"
  "--slot-us|perfetto|DUMP|--slot-us|inf"
  "--rate|record|--rate|nan"
  "--rate|record|--rate|1.5"
  "--nodes|record|--nodes|abc"
  "--nodes|record|--nodes|5"
  "--degree|record|--nodes|20|--degree|40"
  "--seed|record|--seed|12z"
  "--capacity|record|--capacity|0"
  "--slots|record|--slots|5x")

set(failures 0)
foreach(case IN LISTS cases)
  string(REPLACE "DUMP" "${dump}" expanded "${case}")
  string(REPLACE "|" ";" args "${expanded}")
  list(POP_FRONT args name)
  execute_process(COMMAND "${TRACE}" ${args} WORKING_DIRECTORY "${WORKDIR}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(FIND "${err}" "${name}" named)
  if(NOT rc EQUAL 2 OR named EQUAL -1)
    message(SEND_ERROR "ttdc-trace ${case}: exit ${rc}, stderr: ${err}")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()
list(LENGTH cases total)
message(STATUS "${total} bad invocations checked, ${failures} accepted or unnamed")
