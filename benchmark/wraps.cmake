# cmake -DNM=... -DARCHIVE_DIR=... -DDEF=boundaries.def -DOUT=wraps.rsp -P wraps.cmake
#
# Writes the traced binary's linker options: --wrap=<sym> and
# --undefined=<sym> (which pulls the defining archive member in even
# though every caller now reaches the wrapper) for each boundaries.def
# row whose symbol one of the libxlf_*.a archives defines. A row whose
# symbol is gone is left out, so a rename in src/ shrinks the trace
# instead of breaking the build; the tracer reports it as missing.
file(GLOB archives "${ARCHIVE_DIR}/libxlf_*.a")
execute_process(COMMAND "${NM}" --defined-only ${archives}
                OUTPUT_VARIABLE defined RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "nm failed on ${archives}")
endif()

file(READ "${DEF}" rows)
string(REGEX MATCHALL "XLF_(SPAN|COUNT)\\([A-Za-z0-9_]+" heads "${rows}")
set(options "")
foreach(head IN LISTS heads)
  string(REGEX REPLACE "^XLF_[A-Z]+\\(" "" sym "${head}")
  string(FIND "${defined}" " T ${sym}\n" at)
  if(at EQUAL -1)
    message(STATUS "boundary not found, left untraced: ${sym}")
  else()
    string(APPEND options "--wrap=${sym}\n--undefined=${sym}\n")
  endif()
endforeach()
file(WRITE "${OUT}" "${options}")
