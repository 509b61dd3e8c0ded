# Pins some columns of a bench harness CSV: the golden's header names the
# columns to compare (found by name in the CSV's header), and every data
# row of the CSV, cut down to those columns, must match the golden's row
# byte for byte. Goldens leave out wall-clock columns, so only config,
# count and virtual columns are pinned. A change that moves one on
# purpose updates the golden and says why.
#
# Usage: cmake -DCSV=<path> -DGOLDEN=<path> -P check_csv_columns.cmake
foreach(var CSV GOLDEN)
  if(NOT DEFINED ${var} OR NOT EXISTS "${${var}}")
    message(FATAL_ERROR "pass -D${var}=<path to an existing csv>")
  endif()
endforeach()

file(STRINGS "${CSV}" rows)
file(STRINGS "${GOLDEN}" golden)
list(GET rows 0 header)
list(GET golden 0 wanted)
string(REPLACE "," ";" header "${header}")
string(REPLACE "," ";" wanted "${wanted}")

set(columns "")
foreach(name IN LISTS wanted)
  list(FIND header "${name}" index)
  if(index LESS 0)
    message(FATAL_ERROR "${CSV} has no column \"${name}\"")
  endif()
  list(APPEND columns ${index})
endforeach()

list(LENGTH rows num_rows)
list(LENGTH golden num_golden)
if(NOT num_rows EQUAL num_golden)
  message(FATAL_ERROR "${CSV} has ${num_rows} lines, ${GOLDEN} has ${num_golden}")
endif()
math(EXPR last "${num_rows} - 1")
foreach(i RANGE 1 ${last})
  list(GET rows ${i} row)
  string(REPLACE "," ";" fields "${row}")
  set(picked "")
  foreach(index IN LISTS columns)
    list(GET fields ${index} field)
    list(APPEND picked "${field}")
  endforeach()
  string(REPLACE ";" "," picked "${picked}")
  list(GET golden ${i} want)
  if(NOT picked STREQUAL want)
    message(FATAL_ERROR "row ${i} of ${CSV} moved:\n  golden: ${want}\n  got:    ${picked}")
  endif()
endforeach()
message(STATUS "${CSV}: ${num_golden} lines match ${GOLDEN}")
