# Fails when an object file defines a weak (W/w, V/v) or unique (u) symbol.
#
#   cmake -DNM=<nm> -DOBJECT=<file.o> -P check_no_weak_symbols.cmake
#
# Used on the x86-64-v4 CAM kernel object: a weak definition there (an
# inline function or template instantiation compiled for AVX-512) can be
# picked by the linker for every caller, including ones on CPUs without it.
if(NOT NM OR NOT OBJECT)
  message(FATAL_ERROR "usage: cmake -DNM=<nm> -DOBJECT=<file.o> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()
if(NOT EXISTS "${OBJECT}")
  message(FATAL_ERROR "object not found: ${OBJECT}")
endif()
execute_process(COMMAND "${NM}" --defined-only "${OBJECT}"
                OUTPUT_VARIABLE symbols RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${NM} failed on ${OBJECT} (exit ${rc})")
endif()
string(REPLACE "\n" ";" lines "${symbols}")
set(bad "")
foreach(line IN LISTS lines)
  if(line MATCHES "^[0-9a-fA-F]* *[WwVvu] ")
    string(APPEND bad "\n  ${line}")
  endif()
endforeach()
if(bad)
  message(FATAL_ERROR "weak/unique symbols in ${OBJECT}:${bad}")
endif()
message(STATUS "no weak/unique symbols in ${OBJECT}")
