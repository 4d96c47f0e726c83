# Runs one fgqos_sweep invocation and compares the artifact it writes with
# a committed golden, byte for byte (GOLDEN) or by SHA-256 (GOLDEN_SHA256:
# a `sha256sum` line, for goldens too large to commit).
#
#   cmake -DSWEEP=<fgqos_sweep> "-DARGS=<sweep flags>" -DOUT=<artifact>
#         (-DGOLDEN=<file> | -DGOLDEN_SHA256=<file>) -P golden_compare.cmake
separate_arguments(sweep_args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${SWEEP}" ${sweep_args}
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fgqos_sweep ${ARGS} failed: ${rc}")
endif()
if(DEFINED GOLDEN)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${GOLDEN}" "${OUT}" RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${OUT} differs from ${GOLDEN}")
  endif()
else()
  file(SHA256 "${OUT}" got)
  file(STRINGS "${GOLDEN_SHA256}" want LIMIT_COUNT 1)
  string(SUBSTRING "${want}" 0 64 want)
  if(NOT got STREQUAL want)
    message(FATAL_ERROR "${OUT}: sha256 ${got}, golden ${want}")
  endif()
endif()
