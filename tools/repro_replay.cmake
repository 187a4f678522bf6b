# Replay a sweep's REPRO line through distill_run and distill_trace.
# Usage: cmake -DSWEEP=... -DRUN=... -DTRACE=... -P repro_replay.cmake

execute_process(
    COMMAND ${SWEEP} --benchmarks jme --factors 2.0 --collectors Serial
            --invocations 1 --no-epsilon --sizing adaptive
            --sched-seed 7 --fault-plan 16 --max-virtual-time 1000000
            --isolate --watchdog-ms 60000
    OUTPUT_VARIABLE sweep_out
    ERROR_VARIABLE sweep_err
    RESULT_VARIABLE sweep_status)
if(NOT sweep_status EQUAL 0)
    message(FATAL_ERROR "distill_sweep failed (${sweep_status}):\n"
                        "${sweep_err}")
endif()
string(REGEX MATCH "REPRO: distill_run [^\n]*" repro "${sweep_err}")
if(NOT repro)
    message(FATAL_ERROR "no REPRO line in:\n${sweep_err}")
endif()
message(STATUS "${repro}")
foreach(flag --sched-seed --fault-plan --sizing --max-virtual-time
             --watchdog-ms)
    string(FIND "${repro}" " ${flag} " at)
    if(at EQUAL -1)
        message(FATAL_ERROR "REPRO line lacks ${flag}: ${repro}")
    endif()
endforeach()
string(REPLACE "REPRO: distill_run " "" flags "${repro}")
separate_arguments(flags UNIX_COMMAND "${flags}")

# The replayed cell times out again: exit 1 with its status printed.
execute_process(COMMAND ${RUN} ${flags}
                OUTPUT_VARIABLE run_out ERROR_VARIABLE run_err
                RESULT_VARIABLE run_status)
if(NOT run_status EQUAL 1 OR NOT run_out MATCHES "status=timeout")
    message(FATAL_ERROR "distill_run replay (${run_status}):\n"
                        "${run_out}${run_err}")
endif()

execute_process(COMMAND ${TRACE} ${flags} --out trace_repro.json
                OUTPUT_VARIABLE trace_out ERROR_VARIABLE trace_err
                RESULT_VARIABLE trace_status)
if(NOT trace_status EQUAL 0 OR NOT trace_out MATCHES "status=timeout"
   OR NOT trace_out MATCHES "trace-ok events=")
    message(FATAL_ERROR "distill_trace replay (${trace_status}):\n"
                        "${trace_out}${trace_err}")
endif()
message(STATUS "replayed through distill_run and distill_trace")
