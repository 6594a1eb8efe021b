# Replay a post-hoc Chrome trace end to end: run TRACE_EXPORT in a
# fresh WORK_DIR, then open the trace_export.trace.json it wrote with
# VMP_REPLAY. Either step exiting non-zero fails the script.
#
#   cmake -DTRACE_EXPORT=... -DVMP_REPLAY=... -DWORK_DIR=... \
#         -P replay_post_hoc.cmake

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(COMMAND "${TRACE_EXPORT}"
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "trace_export exited with ${rc}")
endif()
execute_process(COMMAND "${VMP_REPLAY}" trace_export.trace.json
        --limit 5
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "vmp_replay exited with ${rc}")
endif()
