# Runs ${EXE} with a flag it does not read and fails unless the program
# exits non-zero naming that flag.  Run with
#   cmake -DEXE=<path to sweep_cli> -P expect_unknown_flag.cmake

function(expect_unknown flag)
  execute_process(
    COMMAND "${EXE}" ${ARGN}
    INPUT_FILE /dev/null
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "'${ARGN}' exited 0; stdout:\n${out}")
  endif()
  if(NOT err MATCHES "unknown option --${flag}")
    message(FATAL_ERROR "'${ARGN}' failed without naming --${flag}:\n${err}")
  endif()
endfunction()

expect_unknown(bogus-flag --bogus-flag 1 --machine kunpeng920 --algo dis
               --threads 4)
expect_unknown(max-attempts --daemon --max-attempts 2)
