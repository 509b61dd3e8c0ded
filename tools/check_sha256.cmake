# Checks files against a committed list in `sha256sum` format: one
# "<hex digest>  <file>" line per file, each file relative to DIR.
# Fails naming every file that is missing or whose digest moved.
#
# Usage: cmake -DLIST=<list file> -DDIR=<dir> -P check_sha256.cmake
cmake_minimum_required(VERSION 3.16)
if(NOT DEFINED LIST OR NOT DEFINED DIR)
  message(FATAL_ERROR "pass -DLIST=<list file> -DDIR=<dir>")
endif()

file(STRINGS "${LIST}" lines)
set(checked 0)
set(moved "")
foreach(line IN LISTS lines)
  if(NOT line MATCHES "^([0-9a-f]+)  (.+)$")
    message(FATAL_ERROR "malformed line in ${LIST}: ${line}")
  endif()
  set(want "${CMAKE_MATCH_1}")
  set(name "${CMAKE_MATCH_2}")
  math(EXPR checked "${checked} + 1")
  if(NOT EXISTS "${DIR}/${name}")
    string(APPEND moved "\n  ${name}: not written")
    continue()
  endif()
  file(SHA256 "${DIR}/${name}" got)
  if(NOT got STREQUAL want)
    string(APPEND moved "\n  ${name}: ${got}, list has ${want}")
  endif()
endforeach()
if(moved)
  message(FATAL_ERROR "digests differ from ${LIST}:${moved}")
endif()
message(STATUS "${checked} files match ${LIST}")
