# Runs one command in a working directory and compares the artifacts it
# writes with committed goldens, byte for byte (GOLDEN: one artifact) or by
# SHA-256 (GOLDEN_SHA256: a file of `sha256sum` lines, for goldens too
# large to commit; each artifact is matched to the line naming its file).
#
#   cmake -DCMD=<program> "-DARGS=<flags>" -DWORKDIR=<dir>
#         "-DOUT=<artifact> [<artifact>...]"
#         (-DGOLDEN=<file> | -DGOLDEN_SHA256=<file>) -P golden_compare.cmake
#
# OUT paths are relative to WORKDIR.
separate_arguments(cmd_args UNIX_COMMAND "${ARGS}")
separate_arguments(outs UNIX_COMMAND "${OUT}")
file(MAKE_DIRECTORY "${WORKDIR}")
foreach(out IN LISTS outs)
  file(REMOVE "${WORKDIR}/${out}")
endforeach()
execute_process(COMMAND "${CMD}" ${cmd_args} WORKING_DIRECTORY "${WORKDIR}"
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${CMD} ${ARGS} failed: ${rc}")
endif()
if(DEFINED GOLDEN)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${GOLDEN}" "${WORKDIR}/${OUT}" RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${WORKDIR}/${OUT} differs from ${GOLDEN}")
  endif()
else()
  file(STRINGS "${GOLDEN_SHA256}" lines)
  foreach(out IN LISTS outs)
    get_filename_component(name "${out}" NAME)
    set(want "")
    foreach(line IN LISTS lines)
      if(line MATCHES "^([0-9a-f]+)  (.+)$" AND CMAKE_MATCH_2 STREQUAL name)
        set(want "${CMAKE_MATCH_1}")
      endif()
    endforeach()
    if(want STREQUAL "")
      message(FATAL_ERROR "${GOLDEN_SHA256} has no digest for ${name}")
    endif()
    file(SHA256 "${WORKDIR}/${out}" got)
    if(NOT got STREQUAL want)
      message(FATAL_ERROR "${out}: sha256 ${got}, golden ${want}")
    endif()
  endforeach()
endif()
