# Run BENCH with --json-out inside a directory that does not exist: it
# must exit 1 and name the path on stderr (not abort on an uncaught
# exception).
#
#   cmake -DBENCH=... -DWORK_DIR=... -P artifact_unwritable.cmake

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(path "${WORK_DIR}/no-such-dir/x.json")
execute_process(COMMAND "${BENCH}" --json-out "${path}"
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
if(NOT rc STREQUAL "1")
    message(FATAL_ERROR "expected exit 1, got '${rc}'; stderr:\n${err}")
endif()
string(FIND "${err}" "cannot open artifact file ${path}" at)
if(at EQUAL -1)
    message(FATAL_ERROR "stderr does not name the path:\n${err}")
endif()
