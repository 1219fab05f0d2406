# Runs a bench with --short --json=<tmp> and byte-compares the JSON
# against a checked-in golden file. The rpc_loadgen_t1_golden test pins
# the T=1 / single-track RPC loadgen output; thread_scale_golden pins the
# multi-track schedules of ext_thread_scale; fig4_golden pins the
# per-offset work-request durations of fig4_offset_latency. A refactor
# that must not change results keeps all of them byte-identical.
#
# Arguments (via -D):
#   BIN     — bench executable
#   GOLDEN  — checked-in golden JSON
#   OUT     — scratch path for the run's JSON

execute_process(
  COMMAND ${BIN} --short --json=${OUT}
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
  RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR
          "${OUT} differs from golden ${GOLDEN}: the bench output is no "
          "longer byte-identical to the committed golden")
endif()
